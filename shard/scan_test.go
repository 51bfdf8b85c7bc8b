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

// TestScanChunkedDifferential pins Scan and ScanChunked to a sorted model
// on a quiescent map: identical pairs, identical order, for chunk sizes
// from degenerate to larger-than-everything, across random bounds. Scan
// is the unbounded-chunk case of the same body, so it must also be
// exactly one round: each stripe locked once.
func TestScanChunkedDifferential(t *testing.T) {
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

			// chunk 0 stands for Scan itself.
			check := func(lo, hi uint64, chunk int) {
				var want, got []kv
				for _, p := range sorted {
					if lo <= p.key && p.key <= hi {
						want = append(want, p)
					}
				}
				collect := func(k, v uint64) bool {
					got = append(got, kv{k, v})
					return true
				}
				err := m.Scan(lo, hi, collect)
				if chunk > 0 {
					got = got[:0]
					err = m.ScanChunked(lo, hi, chunk, collect)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("chunk=%d [%d,%d]: %d pairs want %d", chunk, lo, hi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("chunk=%d [%d,%d] diverges at %d: %v want %v", chunk, lo, hi, i, got[i], want[i])
					}
				}
			}
			for _, chunk := range []int{0, 1, 3, 7, 64, 100000} {
				check(0, ^uint64(0), chunk)
				for i := 0; i < 5; i++ {
					lo, hi := rng.Uint64(), rng.Uint64()
					if lo > hi {
						lo, hi = hi, lo
					}
					check(lo, hi, chunk)
				}
			}

			stats, err := m.scanChunkedStripes(nil, 0, ^uint64(0), unbounded, func(_, _ uint64) bool { return true })
			if err != nil || stats.Rounds != 1 || stats.TornStripes != 0 {
				t.Fatalf("Scan's body ran %+v, %v; want exactly one clean round", stats, err)
			}

			// Early stop after 5 pairs, still in global order.
			var got []uint64
			if err := m.ScanChunked(0, ^uint64(0), 3, func(k, _ uint64) bool {
				got = append(got, k)
				return len(got) < 5
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 {
				t.Fatalf("early-stopped ScanChunked yielded %d pairs", len(got))
			}
			var first []uint64
			m.Scan(0, ^uint64(0), func(k, _ uint64) bool {
				first = append(first, k)
				return len(first) < 5
			})
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("early ScanChunked diverges at %d: %d want %d", i, got[i], first[i])
				}
			}
		})
	}
}

func TestScanChunkedErrors(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas", BackendSpec: "skiplist"})
	if err := m.ScanChunked(0, 1, 0, func(_, _ uint64) bool { return true }); err == nil {
		t.Fatal("chunk 0 accepted")
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.ScanChunkedContext(done, 0, 1, 4, func(_, _ uint64) bool { return true }); err != context.Canceled {
		t.Fatalf("ScanChunkedContext(done)=%v want context.Canceled", err)
	}
	um := MustNew(Config{Stripes: 2, LockSpec: "tas"}) // hashmap
	visited := false
	if err := um.ScanChunked(0, ^uint64(0), 4, func(_, _ uint64) bool { visited = true; return true }); !errors.Is(err, ErrUnordered) {
		t.Fatalf("ScanChunked on unordered backend: %v", err)
	}
	if visited {
		t.Fatal("ScanChunked on unordered backend visited pairs")
	}
}

// TestScanChunkedStress: concurrent writers on a hot band while chunked
// scanners sweep the domain. Yielded keys must be strictly ascending
// (chunk rounds emit disjoint ascending intervals), and the stable band
// — written once, never touched — must appear exactly once per sweep
// despite the weaker cross-chunk consistency.
func TestScanChunkedStress(t *testing.T) {
	m := MustNew(Config{Stripes: 8, LockSpec: "mcscr-stp", BackendSpec: "skiplist", Seed: 17})
	const stableKeys, hotKeys = 256, 64
	for i := uint64(0); i < stableKeys; i++ {
		m.Put(1_000_000+i, i)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for !stop.Load() {
				k := uint64(rng.Intn(hotKeys))
				if rng.Intn(4) == 0 {
					m.Delete(k)
				} else {
					m.Put(k, rng.Uint64())
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				var last uint64
				first := true
				stable := 0
				err := m.ScanChunked(0, ^uint64(0), chunk, func(k, _ uint64) bool {
					if !first && k <= last {
						t.Errorf("chunked scan not ascending: %d after %d", k, last)
						return false
					}
					last, first = k, false
					if k >= 1_000_000 && k < 1_000_000+stableKeys {
						stable++
					}
					return true
				})
				if err != nil {
					t.Errorf("ScanChunked: %v", err)
					return
				}
				if stable != stableKeys {
					t.Errorf("chunked scan saw %d stable keys want %d", stable, stableKeys)
					return
				}
			}
		}(7 + s*20)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestScanChunkedStatsClean: a quiescent multi-round scan certifies —
// TornStripes == 0 — and reports the round count.
func TestScanChunkedStatsClean(t *testing.T) {
	m := MustNew(Config{Stripes: 4, BackendSpec: "skiplist", Seed: 9})
	const n = 400
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	var got int
	stats, err := m.ScanChunkedStats(context.Background(), 0, ^uint64(0), 16, func(k, v uint64) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scan yielded %d pairs, want %d", got, n)
	}
	if stats.TornStripes != 0 {
		t.Fatalf("quiescent scan reported %d torn stripes", stats.TornStripes)
	}
	if stats.Rounds < 2 {
		t.Fatalf("400 keys / chunk 16 took %d rounds, want several", stats.Rounds)
	}
}

// TestScanChunkedStatsTorn: a write landing between two refills of the
// same stripe decertifies exactly that stripe. With one stripe and a
// chunk smaller than the key count, a Put from inside fn is guaranteed
// to fall between rounds.
func TestScanChunkedStatsTorn(t *testing.T) {
	m := MustNew(Config{Stripes: 1, BackendSpec: "skiplist"})
	const n = 64
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	wrote := false
	stats, err := m.ScanChunkedStats(context.Background(), 0, ^uint64(0), 8, func(k, v uint64) bool {
		if !wrote {
			// fn runs with no lock held; this write bumps the stripe's
			// stamp before its next refill.
			m.Put(n+1, 1)
			wrote = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornStripes != 1 {
		t.Fatalf("TornStripes = %d, want 1 (stripe written mid-scan)", stats.TornStripes)
	}
}
