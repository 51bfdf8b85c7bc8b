package shard

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/metrics"
	"repro/store"
)

func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(leakcheck.Run(m))
}

func TestConfigDefaultsAndRounding(t *testing.T) {
	m := MustNew(Config{})
	if m.Stripes() != DefaultStripes {
		t.Fatalf("default Stripes=%d want %d", m.Stripes(), DefaultStripes)
	}
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		m := MustNew(Config{Stripes: tc.in})
		if m.Stripes() != tc.want {
			t.Fatalf("Stripes:%d rounded to %d want %d", tc.in, m.Stripes(), tc.want)
		}
		for _, key := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
			if idx := m.StripeFor(key); idx < 0 || idx >= m.Stripes() {
				t.Fatalf("StripeFor(%d)=%d out of [0,%d)", key, idx, m.Stripes())
			}
		}
	}
}

func TestBadSpec(t *testing.T) {
	if _, err := New(Config{LockSpec: "no-such-lock"}); err == nil {
		t.Fatal("New with unknown lock spec succeeded")
	}
	if _, err := New(Config{LockSpec: "mcscr-stp?bogus=1"}); err == nil {
		t.Fatal("New with unknown spec parameter succeeded")
	}
}

func TestBasicOps(t *testing.T) {
	m := MustNew(Config{Stripes: 8, LockSpec: "tas", Capacity: 1000})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if !m.Put(i, i*10) {
			t.Fatalf("Put(%d) reported existing key", i)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len=%d want %d", m.Len(), n)
	}
	if m.Put(7, 71) {
		t.Fatal("update reported new key")
	}
	for i := uint64(0); i < n; i++ {
		want := i * 10
		if i == 7 {
			want = 71
		}
		if v, ok := m.Get(i); !ok || v != want {
			t.Fatalf("Get(%d)=%d,%v want %d,true", i, v, ok, want)
		}
	}
	if _, ok := m.Get(n + 1); ok {
		t.Fatal("Get found a missing key")
	}
	seen := 0
	m.Range(func(k, v uint64) bool { seen++; return true })
	if seen != n {
		t.Fatalf("Range visited %d pairs want %d", seen, n)
	}
	for i := uint64(0); i < n; i += 2 {
		if !m.Delete(i) {
			t.Fatalf("Delete(%d) missed a present key", i)
		}
	}
	if m.Delete(0) {
		t.Fatal("Delete of a removed key reported presence")
	}
	if m.Len() != n/2 {
		t.Fatalf("Len=%d want %d", m.Len(), n/2)
	}
}

func TestRangeReentrant(t *testing.T) {
	// fn runs with no stripe lock held, so it may call back into the Map —
	// including into the stripe it was just handed pairs from.
	m := MustNew(Config{Stripes: 2, LockSpec: "tas"})
	for i := uint64(0); i < 64; i++ {
		m.Put(i, i)
	}
	visited := 0
	m.Range(func(k, v uint64) bool {
		visited++
		if _, ok := m.Get(k); !ok {
			t.Fatalf("reentrant Get(%d) missed", k)
		}
		return visited < 10 // early stop
	})
	if visited != 10 {
		t.Fatalf("Range visited %d pairs after early stop, want 10", visited)
	}
}

// TestContextOpsPlumbing takes the locked read path: its Get is one of
// the admissions it counts, and a done context fails that Get fast.
func TestContextOpsPlumbing(t *testing.T) {
	m := MustNew(Config{Stripes: 4, LockSpec: "mcscr-stp", HistoryCap: 100, ReadPath: "locked"})
	ctx := WithClientID(context.Background(), 3)
	if fresh, err := m.PutContext(ctx, 1, 10); err != nil || !fresh {
		t.Fatalf("PutContext=%v,%v", fresh, err)
	}
	if v, ok, err := m.GetContext(ctx, 1); err != nil || !ok || v != 10 {
		t.Fatalf("GetContext=%d,%v,%v", v, ok, err)
	}
	if present, err := m.DeleteContext(ctx, 1); err != nil || !present {
		t.Fatalf("DeleteContext=%v,%v", present, err)
	}
	// Anonymous context ops leave no history; identified ones recorded 3.
	if _, err := m.PutContext(context.Background(), 2, 20); err != nil {
		t.Fatalf("anonymous PutContext: %v", err)
	}
	snap := m.Snapshot()
	admissions := 0
	for _, s := range snap.Stripes {
		admissions += s.Fairness.Admissions
	}
	if admissions != 3 {
		t.Fatalf("recorded %d admissions want 3", admissions)
	}
	if snap.Len != 1 {
		t.Fatalf("Snapshot.Len=%d want 1", snap.Len)
	}
	// A done context fails fast without touching the table — on the data
	// path and on the monitoring path alike.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.GetContext(done, 2); err != context.Canceled {
		t.Fatalf("GetContext(done)=%v want context.Canceled", err)
	}
	if _, err := m.SnapshotLite(done); err != context.Canceled {
		t.Fatalf("SnapshotLite(done)=%v want context.Canceled", err)
	}
	if s2, err := m.SnapshotLite(context.Background()); err != nil || s2.Len != 1 {
		t.Fatalf("SnapshotLite Len=%d,%v want 1,nil", s2.Len, err)
	}
}

func TestHistoryCap(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "tas", HistoryCap: 10})
	ctx := WithClientID(context.Background(), 1)
	for i := uint64(0); i < 50; i++ {
		if _, err := m.PutContext(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Snapshot().Stripes[0].Fairness.Admissions; got != 10 {
		t.Fatalf("capped history recorded %d admissions want 10", got)
	}
}

// TestSnapshotLiteRecentLWSS: the lite snapshot computes RecentLWSS from
// the history it captured under the stripe lock, after releasing it. It
// must agree with the full Snapshot's Summarize as distinct clients widen
// the trailing window and one client narrows it again.
func TestSnapshotLiteRecentLWSS(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "tas", HistoryCap: 1 << 12})
	check := func(want float64) {
		t.Helper()
		lite, err := m.SnapshotLite(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := lite.Stripes[0].Fairness.RecentLWSS; got != want {
			t.Fatalf("SnapshotLite RecentLWSS = %v want %v", got, want)
		}
		if got := m.Snapshot().Stripes[0].Fairness.RecentLWSS; got != want {
			t.Fatalf("Snapshot RecentLWSS = %v want %v", got, want)
		}
	}
	check(0)
	for id := 0; id < 8; id++ {
		if _, err := m.PutContext(WithClientID(context.Background(), id), 0, 1); err != nil {
			t.Fatal(err)
		}
		check(float64(id + 1))
	}
	// A full LWSS window of one client pushes the other seven out of it.
	ctx := WithClientID(context.Background(), 0)
	for i := 0; i < metrics.DefaultWindow; i++ {
		if _, err := m.PutContext(ctx, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	check(1)
}

// TestMonotonicReadsPerKey checks per-key linearizability: one writer per
// key writes strictly increasing values, so any reader's successive
// observations of that key must be non-decreasing.
func TestMonotonicReadsPerKey(t *testing.T) {
	for _, spec := range []string{"tas", "mcscr-stp", "mcs-stp"} {
		t.Run(spec, func(t *testing.T) {
			m := MustNew(Config{Stripes: 4, LockSpec: spec, Seed: 9})
			const keys, writes = 4, 2000
			var wg sync.WaitGroup
			var stop atomic.Bool
			for k := uint64(0); k < keys; k++ {
				wg.Add(1)
				go func(key uint64) {
					defer wg.Done()
					for v := uint64(1); v <= writes; v++ {
						m.Put(key, v)
					}
				}(k)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					last := make([]uint64, keys)
					for !stop.Load() {
						for k := uint64(0); k < keys; k++ {
							v, ok := m.Get(k)
							if !ok {
								continue
							}
							if v < last[k] {
								t.Errorf("key %d went backwards: %d after %d", k, v, last[k])
								return
							}
							last[k] = v
						}
					}
				}()
			}
			// Writers finish, then readers are released.
			go func() {
				for k := uint64(0); k < keys; k++ {
					for v, _ := m.Get(k); v != writes; v, _ = m.Get(k) {
						runtime.Gosched()
					}
				}
				stop.Store(true)
			}()
			wg.Wait()
		})
	}
}

// TestConcurrentStress hammers every entry point at once under the race
// detector: the stripe tables are unsynchronized, so any hole in the
// stripe locking surfaces as a race report.
func TestConcurrentStress(t *testing.T) {
	m := MustNew(Config{Stripes: 8, LockSpec: "mcscr-stp", HistoryCap: 1 << 14})
	const goroutines, iters, keyspace = 8, 1500, 256
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			ctx := WithClientID(context.Background(), id)
			for i := 0; i < iters; i++ {
				key := rng.Uint64() % keyspace
				switch rng.Intn(10) {
				case 0:
					m.Delete(key)
				case 1:
					m.Range(func(_, _ uint64) bool { return rng.Intn(8) != 0 })
				case 2:
					m.Len()
				case 3:
					m.Snapshot()
				case 4, 5:
					if _, err := m.PutContext(ctx, key, rng.Uint64()); err != nil {
						t.Errorf("PutContext: %v", err)
					}
				default:
					if rng.Intn(2) == 0 {
						m.Get(key)
					} else if _, _, err := m.GetContext(ctx, key); err != nil {
						t.Errorf("GetContext: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Lock.Cancels != 0 {
		t.Fatalf("uncancellable traffic counted %d Cancels", snap.Lock.Cancels)
	}
	if snap.Len != m.Len() {
		t.Fatalf("quiescent Snapshot.Len=%d but Len()=%d", snap.Len, m.Len())
	}
}

// TestDeadlineStormCancels reconciles the error returns seen by callers
// against the stripes' Cancels counters under a storm of expired and
// near-expired deadlines: the lock contract is exactly one Cancels per
// error return, and the shard layer must not add or lose any. The Gets
// take the locked path, so every op reaches the lock.
func TestDeadlineStormCancels(t *testing.T) {
	for _, spec := range []string{"mcs-stp", "mcscr-stp"} {
		t.Run(spec, func(t *testing.T) {
			// One stripe concentrates the contention so short deadlines
			// really expire in the queue.
			m := MustNew(Config{Stripes: 1, LockSpec: spec, HistoryCap: 1 << 16, ReadPath: "locked"})
			const goroutines, iters = 8, 300
			var errs, succ atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					base := WithClientID(context.Background(), id)
					for i := 0; i < iters; i++ {
						var ctx context.Context
						cancel := context.CancelFunc(func() {})
						switch rng.Intn(3) {
						case 0: // already expired: deterministic fail-fast cancel
							c, cfn := context.WithCancel(base)
							cfn()
							ctx, cancel = c, func() {}
						case 1: // tight: may expire while queued
							ctx, cancel = context.WithTimeout(base, time.Duration(rng.Intn(150))*time.Microsecond)
						default: // generous: normally admitted
							ctx, cancel = context.WithTimeout(base, time.Second)
						}
						key := rng.Uint64() % 64
						var err error
						if rng.Intn(2) == 0 {
							_, _, err = m.GetContext(ctx, key)
						} else {
							_, err = m.PutContext(ctx, key, uint64(i))
						}
						cancel()
						if err != nil {
							errs.Add(1)
						} else {
							succ.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			snap := m.Snapshot()
			if got := snap.Lock.Cancels; got != uint64(errs.Load()) {
				t.Fatalf("Cancels=%d but callers saw %d errors", got, errs.Load())
			}
			if errs.Load()+succ.Load() != goroutines*iters {
				t.Fatalf("accounting hole: %d+%d != %d", errs.Load(), succ.Load(), goroutines*iters)
			}
			// Every successful identified admission is in the history.
			if got := snap.Stripes[0].Fairness.Admissions; got != int(succ.Load()) {
				t.Fatalf("history recorded %d admissions but %d ops succeeded", got, succ.Load())
			}
			if snap.Lock.Abandons > snap.Lock.Cancels {
				t.Fatalf("Abandons=%d > Cancels=%d", snap.Lock.Abandons, snap.Lock.Cancels)
			}
		})
	}
}

func TestBadBackendSpec(t *testing.T) {
	if _, err := New(Config{BackendSpec: "no-such-backend"}); err == nil {
		t.Fatal("New with unknown backend spec succeeded")
	}
	if _, err := New(Config{BackendSpec: "skiplist?bogus=1"}); err == nil {
		t.Fatal("New with unknown backend parameter succeeded")
	}
}

// TestBackendSweepBasicOps runs the basic operation battery over every
// registered backend: the Map contract must not depend on which table
// serves the stripes.
func TestBackendSweepBasicOps(t *testing.T) {
	for _, backend := range store.Names() {
		t.Run(backend, func(t *testing.T) {
			m := MustNew(Config{Stripes: 8, LockSpec: "tas", BackendSpec: backend, Capacity: 512, Seed: 3})
			const n = 512
			for i := uint64(0); i < n; i++ {
				if !m.Put(i, i*10) {
					t.Fatalf("Put(%d) reported existing key", i)
				}
			}
			if m.Len() != n {
				t.Fatalf("Len=%d want %d", m.Len(), n)
			}
			for i := uint64(0); i < n; i++ {
				if v, ok := m.Get(i); !ok || v != i*10 {
					t.Fatalf("Get(%d)=%d,%v", i, v, ok)
				}
			}
			seen := 0
			m.Range(func(k, v uint64) bool { seen++; return true })
			if seen != n {
				t.Fatalf("Range visited %d pairs want %d", seen, n)
			}
			for i := uint64(0); i < n; i += 2 {
				if !m.Delete(i) {
					t.Fatalf("Delete(%d) missed", i)
				}
			}
			if m.Len() != n/2 {
				t.Fatalf("Len=%d want %d", m.Len(), n/2)
			}
		})
	}
}

// TestScanUnordered pins the clean failure mode: the default hashmap
// backend cannot serve range queries, and says so without visiting
// anything.
func TestScanUnordered(t *testing.T) {
	m := MustNew(Config{Stripes: 4, LockSpec: "tas"}) // default backend: hashmap
	if m.Ordered() {
		t.Fatal("hashmap-backed map claims Ordered")
	}
	visited := false
	err := m.Scan(0, ^uint64(0), func(_, _ uint64) bool { visited = true; return true })
	if !errors.Is(err, ErrUnordered) {
		t.Fatalf("Scan on unordered backend: err=%v want ErrUnordered", err)
	}
	if visited {
		t.Fatal("Scan on unordered backend visited pairs")
	}
	if err := m.ScanContext(context.Background(), 0, 1, nil); !errors.Is(err, ErrUnordered) {
		t.Fatalf("ScanContext on unordered backend: err=%v", err)
	}
}

// TestScanOrdered checks cross-stripe merged scans against a model for
// both ordered backends: global ascending order, inclusive bounds, and
// early stop.
func TestScanOrdered(t *testing.T) {
	for _, backend := range []string{"skiplist", "rbtree"} {
		t.Run(backend, func(t *testing.T) {
			m := MustNew(Config{Stripes: 8, LockSpec: "tas", BackendSpec: backend, Seed: 5})
			if !m.Ordered() {
				t.Fatalf("%s-backed map does not claim Ordered", backend)
			}
			rng := rand.New(rand.NewSource(11))
			model := map[uint64]uint64{}
			for i := 0; i < 4000; i++ {
				k := rng.Uint64() >> uint(rng.Intn(64)) // all magnitudes
				model[k] = k * 3
				m.Put(k, k*3)
			}
			m.Put(0, 1)
			model[0] = 1
			m.Put(^uint64(0), 2)
			model[^uint64(0)] = 2

			keys := make([]uint64, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

			check := func(lo, hi uint64) {
				var want []uint64
				for _, k := range keys {
					if lo <= k && k <= hi {
						want = append(want, k)
					}
				}
				var got []uint64
				err := m.Scan(lo, hi, func(k, v uint64) bool {
					if v != model[k] {
						t.Fatalf("Scan yielded %d=%d want %d", k, v, model[k])
					}
					got = append(got, k)
					return true
				})
				if err != nil {
					t.Fatalf("Scan[%d,%d]: %v", lo, hi, err)
				}
				if len(got) != len(want) {
					t.Fatalf("Scan[%d,%d] yielded %d keys want %d", lo, hi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Scan[%d,%d] diverges at %d: got %d want %d", lo, hi, i, got[i], want[i])
					}
				}
			}
			check(0, ^uint64(0))
			for i := 0; i < 20; i++ {
				lo, hi := rng.Uint64(), rng.Uint64()
				if lo > hi {
					lo, hi = hi, lo
				}
				check(lo, hi)
			}
			// Early stop after 5 pairs, still in global order.
			var got []uint64
			if err := m.Scan(0, ^uint64(0), func(k, _ uint64) bool {
				got = append(got, k)
				return len(got) < 5
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 {
				t.Fatalf("early-stopped Scan yielded %d pairs", len(got))
			}
			for i := range got {
				if got[i] != keys[i] {
					t.Fatalf("early Scan diverges at %d: got %d want %d", i, got[i], keys[i])
				}
			}
			// ScanContext: done context fails fast; live context serves.
			done, cancel := context.WithCancel(context.Background())
			cancel()
			if err := m.ScanContext(done, 0, 1, func(_, _ uint64) bool { return true }); err != context.Canceled {
				t.Fatalf("ScanContext(done)=%v want context.Canceled", err)
			}
			n := 0
			if err := m.ScanContext(context.Background(), 0, ^uint64(0), func(_, _ uint64) bool { n++; return true }); err != nil || n != len(keys) {
				t.Fatalf("ScanContext yielded %d,%v want %d,nil", n, err, len(keys))
			}
		})
	}
}

// TestScanStress hammers ordered backends with concurrent writers,
// deleters, and scanners under the race detector. Each scanned slice
// must be strictly ascending (global order), and keys outside the
// mutated band — written once before the storm and never touched again —
// must all appear in every full scan: per-stripe consistency cannot lose
// an untouched key.
func TestScanStress(t *testing.T) {
	for _, backend := range []string{"skiplist", "rbtree"} {
		t.Run(backend, func(t *testing.T) {
			m := MustNew(Config{Stripes: 8, LockSpec: "mcscr-stp", BackendSpec: backend, Seed: 17})
			const stableKeys, hotKeys = 256, 64
			// Stable band: keys [1e6, 1e6+stableKeys) written once.
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
			for s := 0; s < 3; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; iter < 60; iter++ {
						var last uint64
						first := true
						stable := 0
						err := m.Scan(0, ^uint64(0), func(k, _ uint64) bool {
							if !first && k <= last {
								t.Errorf("scan not ascending: %d after %d", k, last)
								return false
							}
							last, first = k, false
							if k >= 1_000_000 && k < 1_000_000+stableKeys {
								stable++
							}
							return true
						})
						if err != nil {
							t.Errorf("Scan: %v", err)
							return
						}
						if stable != stableKeys {
							t.Errorf("scan saw %d stable keys want %d", stable, stableKeys)
							return
						}
					}
				}()
			}
			time.Sleep(50 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
		})
	}
}
