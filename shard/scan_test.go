package shard

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScanFirstDifferential pins Scan and ScanFirst to a sorted model on
// a quiescent map across random bounds: Scan yields every pair in
// [lo, hi], and ScanFirst at limit n exactly the model's first
// min(n, len) of them, in order, for limits from degenerate to
// larger-than-everything.
func TestScanFirstDifferential(t *testing.T) {
	for _, backend := range []string{"skiplist", "rbtree"} {
		t.Run(backend, func(t *testing.T) {
			m := MustNew(Config{Stripes: 8, LockSpec: "tas", BackendSpec: backend, Seed: 5})
			rng := rand.New(rand.NewSource(23))
			model := map[uint64]uint64{0: 1, ^uint64(0): 2}
			for i := 0; i < 3000; i++ {
				k := rng.Uint64() >> uint(rng.Intn(64))
				model[k] = k * 3
			}
			var sorted []kv
			for k, v := range model {
				m.Put(k, v)
				sorted = append(sorted, kv{k, v})
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })

			// limit 0 stands for Scan itself.
			check := func(lo, hi uint64, limit int) {
				var want, got []kv
				for _, p := range sorted {
					if lo <= p.key && p.key <= hi && (limit == 0 || len(want) < limit) {
						want = append(want, p)
					}
				}
				collect := func(k, v uint64) bool {
					got = append(got, kv{k, v})
					return true
				}
				var err error
				if limit == 0 {
					err = m.Scan(lo, hi, collect)
				} else {
					err = m.ScanFirst(context.Background(), lo, hi, limit, collect)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("limit=%d [%d,%d]: %d pairs want %d", limit, lo, hi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("limit=%d [%d,%d] diverges at %d: %v want %v", limit, lo, hi, i, got[i], want[i])
					}
				}
			}
			for _, limit := range []int{0, 1, 3, 7, 64, 100000} {
				check(0, ^uint64(0), limit)
				for i := 0; i < 5; i++ {
					lo, hi := rng.Uint64(), rng.Uint64()
					if lo > hi {
						lo, hi = hi, lo
					}
					check(lo, hi, limit)
				}
			}

			// Early stop after 5 pairs, still in global order.
			var got []uint64
			if err := m.ScanFirst(context.Background(), 0, ^uint64(0), 64, func(k, _ uint64) bool {
				got = append(got, k)
				return len(got) < 5
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 {
				t.Fatalf("early-stopped ScanFirst yielded %d pairs", len(got))
			}
			for i := range got {
				if got[i] != sorted[i].key {
					t.Fatalf("early ScanFirst diverges at %d: %d want %d", i, got[i], sorted[i].key)
				}
			}
		})
	}
}

func TestScanFirstErrors(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas", BackendSpec: "skiplist"})
	if err := m.ScanFirst(context.Background(), 0, 1, 0, func(_, _ uint64) bool { return true }); err == nil {
		t.Fatal("n 0 accepted")
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.ScanFirst(done, 0, 1, 4, func(_, _ uint64) bool { return true }); err != context.Canceled {
		t.Fatalf("ScanFirst(done)=%v want context.Canceled", err)
	}
	um := MustNew(Config{Stripes: 2, LockSpec: "tas"}) // hashmap
	visited := false
	if err := um.ScanFirst(context.Background(), 0, ^uint64(0), 4, func(_, _ uint64) bool { visited = true; return true }); !errors.Is(err, ErrUnordered) {
		t.Fatalf("ScanFirst on unordered backend: %v", err)
	}
	if visited {
		t.Fatal("ScanFirst on unordered backend visited pairs")
	}
}

// TestScanFirstStress: concurrent writers on a hot band while bounded
// scanners sweep the domain. Yielded keys must be strictly ascending,
// and the stable band below the hot one — written once, never touched —
// must fill the first min(limit, band size) pairs of every sweep: all of
// the band, exactly once, when the limit covers it.
func TestScanFirstStress(t *testing.T) {
	m := MustNew(Config{Stripes: 8, LockSpec: "mcscr-stp", BackendSpec: "skiplist", Seed: 17})
	const stableKeys, hotKeys = 256, 64
	const hotBase = 1_000_000
	for i := uint64(0); i < stableKeys; i++ {
		m.Put(i, i)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for !stop.Load() {
				k := hotBase + uint64(rng.Intn(hotKeys))
				if rng.Intn(4) == 0 {
					m.Delete(k)
				} else {
					m.Put(k, rng.Uint64())
				}
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(limit int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				var last uint64
				first := true
				stable := 0
				err := m.ScanFirst(context.Background(), 0, ^uint64(0), limit, func(k, _ uint64) bool {
					if !first && k <= last {
						t.Errorf("bounded scan not ascending: %d after %d", k, last)
						return false
					}
					last, first = k, false
					if k < stableKeys {
						stable++
					}
					return true
				})
				if err != nil {
					t.Errorf("ScanFirst: %v", err)
					return
				}
				if want := min(limit, stableKeys); stable != want {
					t.Errorf("limit %d: scan saw %d stable keys want %d", limit, stable, want)
					return
				}
			}
		}([]int{7, stableKeys, 1000}[s])
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}
