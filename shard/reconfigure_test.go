package shard

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReconfigureBasics(t *testing.T) {
	m := MustNew(Config{Stripes: 4, LockSpec: "tas", Seed: 3, Capacity: 1024})
	const n = 1024
	for i := uint64(0); i < n; i++ {
		m.Put(i, i*7)
	}
	if bs := backendOf(m, 0); bs != "hashmap" {
		t.Fatalf("stripe 0 backend = %q", bs)
	}

	// Swap stripe 0's backend; the lock stays, for life.
	before := m.Snapshot()
	if err := m.Reconfigure(0, "skiplist"); err != nil {
		t.Fatal(err)
	}
	if bs := backendOf(m, 0); bs != "skiplist" {
		t.Fatalf("after backend swap stripe 0 backend = %q", bs)
	}
	if bs := backendOf(m, 1); bs != "hashmap" {
		t.Fatalf("stripe 1 disturbed: %q", bs)
	}
	if m.LockSpec() != "tas" {
		t.Fatalf("LockSpec = %q after a backend swap", m.LockSpec())
	}
	// Every entry survived the migration.
	if m.Len() != n {
		t.Fatalf("Len=%d want %d after migration", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i*7 {
			t.Fatalf("Get(%d)=%d,%v after migration", i, v, ok)
		}
	}
	// Partial order: the map is not Ordered until every stripe is.
	if m.Ordered() {
		t.Fatal("Ordered with 3 hashmap stripes")
	}
	if err := m.Scan(0, ^uint64(0), func(_, _ uint64) bool { return true }); err == nil {
		t.Fatal("Scan succeeded with unordered stripes")
	}
	for i := 1; i < m.Stripes(); i++ {
		if err := m.Reconfigure(i, "skiplist"); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Ordered() {
		t.Fatal("not Ordered after swapping every stripe to skiplist")
	}
	var last uint64
	count, first := 0, true
	if err := m.Scan(0, ^uint64(0), func(k, _ uint64) bool {
		if !first && k <= last {
			t.Fatalf("scan not ascending after reconfiguration: %d after %d", k, last)
		}
		last, first = k, false
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d keys want %d", count, n)
	}

	// The stripe lock outlives every swap, so its counters only grow:
	// the migrations' own acquisitions are in them.
	after := m.Snapshot()
	if after.Stripes[0].Lock.Acquires <= before.Stripes[0].Lock.Acquires {
		t.Fatalf("Acquires did not grow across a backend swap: %d -> %d",
			before.Stripes[0].Lock.Acquires, after.Stripes[0].Lock.Acquires)
	}
	if after.Swaps != 4 {
		t.Fatalf("Snapshot.Swaps=%d want 4", after.Swaps)
	}
	// A no-op reconfigure (the current spec, or empty) counts nothing.
	if err := m.Reconfigure(0, "skiplist"); err != nil {
		t.Fatal(err)
	}
	if err := m.Reconfigure(0, ""); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Swaps; got != 4 {
		t.Fatalf("no-op reconfigure counted a swap: %d", got)
	}
}

func TestReconfigureErrors(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas"})
	for _, tc := range []struct {
		stripe  int
		backend string
	}{
		{-1, ""},
		{2, ""},
		{0, "no-such-backend"},
		{0, "skiplist?bogus=1"},
	} {
		if err := m.Reconfigure(tc.stripe, tc.backend); err == nil {
			t.Fatalf("Reconfigure(%d, %q) succeeded", tc.stripe, tc.backend)
		}
	}
	// A failed reconfigure leaves the stripe untouched.
	if bs := backendOf(m, 0); bs != "hashmap" {
		t.Fatalf("failed Reconfigure disturbed the backend: %q", bs)
	}
	m.Put(1, 2)
	if v, ok := m.Get(1); !ok || v != 2 {
		t.Fatalf("map broken after failed Reconfigure: %d, %v", v, ok)
	}
}

// TestReconfigureStress is the live-reconfiguration differential: writers
// own disjoint key ranges and readers assert per-key monotonicity while a
// swapper cycles every stripe through the backends. The stripe tables are
// unsynchronized, so any hole in the swap protocol (an op touching a table
// after it was migrated away) is a race report under -race; lost or
// duplicated entries surface in the final model comparison.
func TestReconfigureStress(t *testing.T) {
	m := MustNew(Config{Stripes: 4, LockSpec: "mcs-stp", Seed: 11})
	const (
		writers        = 4
		keysPerWriter  = 64
		writesPerKey   = 300
		readerRoutines = 2
	)
	backendSpecs := []string{"hashmap", "skiplist", "rbtree"}

	var stop atomic.Bool
	var writerWg, wg sync.WaitGroup

	// Writers: each owns keys [id*keysPerWriter, (id+1)*keysPerWriter),
	// writing strictly increasing values; a random subset is
	// deleted/reinserted to exercise migration of deletions. Each records
	// its final value per key for the differential.
	finals := make([]map[uint64]uint64, writers)
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(id int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 100))
			final := make(map[uint64]uint64, keysPerWriter)
			base := uint64(id * keysPerWriter)
			for v := uint64(1); v <= writesPerKey; v++ {
				for k := uint64(0); k < keysPerWriter; k++ {
					key := base + k
					if rng.Intn(16) == 0 {
						m.Delete(key)
						delete(final, key)
					} else {
						m.Put(key, v)
						final[key] = v
					}
				}
			}
			finals[id] = final
		}(w)
	}

	// Readers: per-key monotonic observations. A stale read served off a
	// retired table (a swap-protocol hole) shows up as a value going
	// backwards; a read racing a migration shows up under -race.
	for r := 0; r < readerRoutines; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			last := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(int64(id) + 900))
			for !stop.Load() {
				key := uint64(rng.Intn(writers * keysPerWriter))
				v, ok := m.Get(key)
				if !ok {
					continue
				}
				if prev, seen := last[key]; seen && v < prev {
					t.Errorf("key %d went backwards: %d after %d", key, v, prev)
					return
				}
				last[key] = v
			}
		}(r)
	}

	// The swapper: random stripes through random backends, as fast as
	// the quiesce protocol allows.
	wg.Add(1)
	swaps := 0
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			stripe := rng.Intn(m.Stripes())
			bs := backendSpecs[rng.Intn(len(backendSpecs))]
			if err := m.Reconfigure(stripe, bs); err != nil {
				t.Errorf("Reconfigure(%d, %q): %v", stripe, bs, err)
				return
			}
			swaps++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Writers bound the run; readers and the swapper stop when they
	// finish.
	writerWg.Wait()
	stop.Store(true)
	wg.Wait()

	// Differential: the map must hold exactly the union of the writers'
	// final models — no lost entries, no duplicates, no resurrections.
	want := 0
	for w, final := range finals {
		want += len(final)
		for key, val := range final {
			v, ok := m.Get(key)
			if !ok {
				t.Fatalf("writer %d key %d lost (want %d)", w, key, val)
			}
			if v != val {
				t.Fatalf("writer %d key %d = %d want %d", w, key, v, val)
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("Len=%d want %d after %d swaps", got, want, swaps)
	}
	// Range agrees with Len (a duplicated entry across a migration would
	// show up in a backend's own invariants or here).
	seen := make(map[uint64]bool, want)
	m.Range(func(k, _ uint64) bool {
		if seen[k] {
			t.Fatalf("Range yielded key %d twice", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != want {
		t.Fatalf("Range saw %d keys want %d", len(seen), want)
	}
	if swaps == 0 {
		t.Fatal("swapper never swapped")
	}
	// No-op Reconfigure calls (a random pick matching the current backend)
	// are not counted, so Swaps <= calls; but the counter must move.
	if got := m.Snapshot().Swaps; got == 0 || got > uint64(swaps) {
		t.Fatalf("Snapshot.Swaps=%d after %d Reconfigure calls", got, swaps)
	}
}

// TestReconfigureContextOps checks the deadline path across swaps: a
// context op queued behind a migration still reconciles Cancels exactly
// with caller errors — the stripe lock, and so every count on it,
// outlives the swaps.
func TestReconfigureContextOps(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "mcs-stp", HistoryCap: 1 << 12})
	const goroutines, iters = 4, 200
	var errs, succ atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			base := WithClientID(context.Background(), id)
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(base, time.Duration(rng.Intn(300))*time.Microsecond)
				var err error
				if rng.Intn(2) == 0 {
					_, _, err = m.GetContext(ctx, uint64(rng.Intn(64)))
				} else {
					_, err = m.PutContext(ctx, uint64(rng.Intn(64)), uint64(i))
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		specs := []string{"skiplist", "hashmap"}
		for i := 0; !stop.Load(); i++ {
			if err := m.Reconfigure(0, specs[i%2]); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
		}
	}()
	go func() {
		// Writers finish, then the swapper is released.
		for succ.Load()+errs.Load() < goroutines*iters {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	wg.Wait()
	if errs.Load()+succ.Load() != goroutines*iters {
		t.Fatalf("accounting hole: %d+%d != %d", errs.Load(), succ.Load(), goroutines*iters)
	}
	snap := m.Snapshot()
	if snap.Lock.Cancels != uint64(errs.Load()) {
		t.Fatalf("Cancels=%d, caller errors %d", snap.Lock.Cancels, errs.Load())
	}
	if snap.Swaps == 0 {
		t.Fatal("swapper never swapped")
	}
	// Every successful identified admission is in the history (history
	// survives swaps: it belongs to the stripe, not the descriptor).
	if got := snap.Stripes[0].Fairness.Admissions; got != int(succ.Load()) {
		t.Fatalf("history recorded %d admissions but %d ops succeeded", got, succ.Load())
	}
}
