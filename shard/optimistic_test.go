package shard

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/fault"
	"repro/internal/hashmap"
	"repro/store"
)

func TestReadPathConfig(t *testing.T) {
	if _, err := New(Config{ReadPath: "turbo"}); err == nil {
		t.Fatal("New accepted an unknown read path")
	}
	m := MustNew(Config{Stripes: 2})
	if got := m.ReadPath(); got != "optimistic" {
		t.Fatalf("default ReadPath() = %q, want optimistic", got)
	}
	m = MustNew(Config{Stripes: 2, ReadPath: "locked"})
	if got := m.ReadPath(); got != "locked" {
		t.Fatalf("ReadPath() = %q, want locked", got)
	}
	if _, err := New(Config{ReadPath: "optimistic?bogus=4"}); err == nil {
		t.Fatal("New accepted a read-path parameter")
	}
}

// TestOptimisticGetAccounting is the acceptance shape: on a quiescent
// optimistic map, every Get is served lock-free — the hit counter
// carries the read volume exactly, and the only lock acquires in the
// interval are the writes and the snapshots' own stripe visits.
func TestOptimisticGetAccounting(t *testing.T) {
	const stripes = 4
	m := MustNew(Config{Stripes: stripes, LockSpec: "tas", ReadPath: "optimistic"})
	const keys = 1024
	for i := uint64(0); i < keys; i++ {
		m.Put(i, i*3)
	}
	base := m.Snapshot().Counters

	const gets = 10000
	miss := 0
	for i := 0; i < gets; i++ {
		k := uint64(i) % (keys + 64) // some misses: absent keys validate too
		v, ok := m.Get(k)
		if k < keys && (!ok || v != k*3) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
		if k >= keys {
			miss++
			if ok {
				t.Fatalf("Get(%d) found an absent key", k)
			}
		}
	}
	_ = miss

	delta := m.Snapshot().Counters.Sub(base)
	if delta.OptimisticHits != gets {
		t.Fatalf("optimistic hits = %d, want %d", delta.OptimisticHits, gets)
	}
	if delta.OptimisticFallbacks != 0 || delta.OptimisticRetries != 0 {
		t.Fatalf("quiescent map saw retries=%d fallbacks=%d", delta.OptimisticRetries, delta.OptimisticFallbacks)
	}
	// Zero stripe-lock acquires for the Gets: the interval's acquires
	// are exactly the closing snapshot's own per-stripe visits.
	if delta.Lock.Acquires != stripes {
		t.Fatalf("lock acquires = %d, want %d (snapshot only)", delta.Lock.Acquires, stripes)
	}

	// GetContext hits are budgeted (attempt counted, no miss) and never
	// take the lock either.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base = m.Snapshot().Counters
	for i := uint64(0); i < 100; i++ {
		if v, ok, err := m.GetContext(ctx, i); err != nil || !ok || v != i*3 {
			t.Fatalf("GetContext(%d) = %d, %v, %v", i, v, ok, err)
		}
	}
	delta = m.Snapshot().Counters.Sub(base)
	if delta.OptimisticHits != 100 || delta.Lock.Acquires != stripes {
		t.Fatalf("GetContext interval: hits=%d acquires=%d", delta.OptimisticHits, delta.Lock.Acquires)
	}
	if delta.DeadlineAttempts != 100 || delta.DeadlineMisses != 0 {
		t.Fatalf("GetContext interval: attempts=%d misses=%d", delta.DeadlineAttempts, delta.DeadlineMisses)
	}

	// A context that has already ended does not stop a lock-free hit: the
	// hit wins (GetContext's doc), counts one attempt and no miss, and
	// the lock, never asked, records no Cancel.
	ended, end := context.WithCancel(context.Background())
	end()
	base = m.Snapshot().Counters
	if v, ok, err := m.GetContext(ended, 7); err != nil || !ok || v != 21 {
		t.Fatalf("GetContext(ended, 7) = %d, %v, %v; want 21, true, nil", v, ok, err)
	}
	delta = m.Snapshot().Counters.Sub(base)
	if delta.OptimisticHits != 1 || delta.DeadlineAttempts != 1 || delta.DeadlineMisses != 0 || delta.Lock.Cancels != 0 {
		t.Fatalf("ended-context hit: hits=%d attempts=%d misses=%d cancels=%d; want 1, 1, 0, 0",
			delta.OptimisticHits, delta.DeadlineAttempts, delta.DeadlineMisses, delta.Lock.Cancels)
	}
}

// TestOptimisticDeclinedBackend: a backend without store.OptimisticReader
// keeps the locked path under an optimistic config — correct answers, no
// optimistic counters, not even fallbacks (declining is not failing).
func TestOptimisticDeclinedBackend(t *testing.T) {
	m := MustNew(Config{Stripes: 2, BackendSpec: "skiplist", ReadPath: "optimistic"})
	for i := uint64(0); i < 256; i++ {
		m.Put(i, i+1)
	}
	base := m.Snapshot().Counters
	for i := uint64(0); i < 256; i++ {
		if v, ok := m.Get(i); !ok || v != i+1 {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	delta := m.Snapshot().Counters.Sub(base)
	if delta.OptimisticHits != 0 || delta.OptimisticRetries != 0 || delta.OptimisticFallbacks != 0 {
		t.Fatalf("declined backend counted optimistic traffic: %+v", delta)
	}
	if delta.Lock.Acquires < 256 {
		t.Fatalf("declined backend served %d locked Gets, want >= 256", delta.Lock.Acquires)
	}
}

// TestOptimisticFallbackUnderStall: an armed stall fault lengthens
// writer critical sections (the injector runs inside the write
// section), so concurrent optimistic readers see unstable stamps,
// exhaust their budget, and fall back to the lock — the designed
// degradation, visible in the fallback counter.
func TestOptimisticFallbackUnderStall(t *testing.T) {
	// The FIFO mcs-stp lock bounds each fallback Get's wait at one
	// writer critical section; an unfair spinlock could starve the
	// reader behind the stalling writer's immediate re-acquires.
	m := MustNew(Config{Stripes: 1, LockSpec: "mcs-stp", ReadPath: "optimistic"})
	set := fault.MustNew("stall?p=1&hold=100us")
	m.SetInjector(set)
	defer m.SetInjector(nil)
	set.Arm()
	defer set.Disarm()

	m.Put(1, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				m.Put(i%128, i)
			}
		}
	}()

	// Poll the stripe's counters directly — a Snapshot would itself
	// queue behind the stalling writer.
	fallbacks := func() uint64 { return m.stripes[0].load().OptimisticFallbacks }
	deadline := time.Now().Add(5 * time.Second)
	for fallbacks() == 0 {
		if time.Now().After(deadline) {
			t.Error("no fallback observed under a p=1 stall within 5s")
			break
		}
		for i := 0; i < 10 && fallbacks() == 0; i++ {
			m.Get(uint64(i % 128))
		}
	}
	close(stop)
	wg.Wait()
}

// TestOptimisticMonotonicStress is the -race differential for the
// optimistic read path: per-key monotonic counters written under the
// stripe locks while lock-free readers assert that validated reads
// never go backwards — across concurrent writers and an armed stall
// fault lengthening the write sections. Any torn read that escapes
// validation, or any unsynchronized slot access, shows up as a
// monotonicity failure or a race report.
func TestOptimisticMonotonicStress(t *testing.T) {
	const (
		stripes = 2
		keys    = 64
		writers = 4
		readers = 4
	)
	m := MustNew(Config{Stripes: stripes, LockSpec: "mcs-stp", ReadPath: "optimistic"})
	set := fault.MustNew("stall?p=0.05&hold=50us")
	m.SetInjector(set)
	defer m.SetInjector(nil)
	set.Arm()
	defer set.Disarm()

	for k := uint64(0); k < keys; k++ {
		m.Put(k, 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: each owns a disjoint key slice and publishes a strictly
	// increasing value per key.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var v uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v++
				for k := uint64(w); k < keys; k += writers {
					m.Put(k, v)
				}
			}
		}(w)
	}

	// Readers: per-key last-seen values must never decrease. Mix the
	// plain and context forms so both bypasses are exercised.
	ctx := context.Background()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			last := make([]uint64, keys)
			dctx, cancel := context.WithTimeout(ctx, time.Hour)
			defer cancel()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				var v uint64
				var ok bool
				if rng.Intn(2) == 0 {
					v, ok = m.Get(k)
				} else {
					var err error
					v, ok, err = m.GetContext(dctx, k)
					if err != nil {
						continue
					}
				}
				if !ok {
					t.Errorf("key %d vanished (never deleted)", k)
					return
				}
				if v < last[k] {
					t.Errorf("non-monotonic read: key %d went %d -> %d", k, last[k], v)
					return
				}
				last[k] = v
			}
		}(int64(r))
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := m.Snapshot()
	if snap.OptimisticHits == 0 {
		t.Fatal("stress run served zero optimistic hits")
	}
}

// parkingMap is the hashmap backend with a one-shot gate on its
// lock-free probe: while parkNext holds a gate, the next GetOptimistic
// finishes its probe, reports in on entered, and parks until release is
// closed — still holding whatever it read.
type parkingMap struct{ *hashmap.Map }

type probeGate struct{ entered, release chan struct{} }

var parkNext atomic.Pointer[probeGate]

func (p parkingMap) GetOptimistic(key uint64) (uint64, bool) {
	v, ok := p.Map.GetOptimistic(key)
	if g := parkNext.Swap(nil); g != nil {
		close(g.entered)
		<-g.release
	}
	return v, ok
}

func init() {
	store.Register(store.Registration{
		Name:    "parkinghashmap",
		Summary: "test-only: hashmap whose GetOptimistic can be parked mid-read",
		Build: func(opts ...store.Option) store.Backend {
			return parkingMap{store.MustNew("hashmap", opts...).(*hashmap.Map)}
		},
	})
}

// TestOptimisticStaleReader is the deterministic case behind the
// monotonic stress: a lock-free reader finishes its probe and is held
// there, value in hand and not yet validated, while the key is
// rewritten. Nothing but the moved stamp stands between that reader and
// a stale return. It must fail validation exactly once and re-read.
func TestOptimisticStaleReader(t *testing.T) {
	t.Run("overlapping-write", func(t *testing.T) {
		m := MustNew(Config{Stripes: 1, BackendSpec: "parkinghashmap", ReadPath: "optimistic"})
		m.Put(1, 10)
		base := m.Snapshot().Counters

		g := &probeGate{entered: make(chan struct{}), release: make(chan struct{})}
		parkNext.Store(g)
		got := make(chan uint64, 1)
		go func() {
			v, _ := m.Get(1)
			got <- v
		}()
		<-g.entered // the reader holds 10, not yet validated

		m.Put(1, 20)
		close(g.release)

		if v := <-got; v != 20 {
			t.Fatalf("Get across an overlapping write = %d, want the rewritten 20", v)
		}
		delta := m.Snapshot().Counters.Sub(base)
		if delta.OptimisticHits != 1 || delta.OptimisticRetries != 1 || delta.OptimisticFallbacks != 0 {
			t.Fatalf("hits=%d retries=%d fallbacks=%d, want 1, 1, 0",
				delta.OptimisticHits, delta.OptimisticRetries, delta.OptimisticFallbacks)
		}
	})
}

// TestOptimisticCounters sanity-checks the per-stripe counter plumbing
// through StripeSnapshot and the delta path under a known single-stripe
// workload.
func TestOptimisticCounterPlumbing(t *testing.T) {
	m := MustNew(Config{Stripes: 1, ReadPath: "optimistic"})
	m.Put(7, 70)
	base := m.Snapshot().Counters
	for i := 0; i < 50; i++ {
		m.Get(7)
	}
	snap := m.Snapshot()
	if snap.Stripes[0].OptimisticHits != snap.OptimisticHits {
		t.Fatalf("stripe/rollup mismatch: %d vs %d", snap.Stripes[0].OptimisticHits, snap.OptimisticHits)
	}
	delta := snap.Counters.Sub(base)
	if delta.OptimisticHits != 50 {
		t.Fatalf("delta hits = %d, want 50", delta.OptimisticHits)
	}
}

// TestOptimisticCountersConcurrent: the per-goroutine counter slots
// keep every counter exact under concurrency. Readers on many
// goroutines issue plain Gets, unbudgeted GetContexts and budgeted
// GetContexts of every class while a writer's budgeted and plain Puts
// push some of them through retries and the locked fallback. Every Get
// is then exactly one hit or one fallback, every class's attempts are
// exactly the budgeted ops of that class, whichever path served them,
// and every lock acquisition is a write, a fallback or the closing
// snapshot's visit.
func TestOptimisticCountersConcurrent(t *testing.T) {
	const (
		stripes = 16
		keys    = 4096
	)
	const perReader = 2000
	readers := 2 * runtime.GOMAXPROCS(0)
	m := MustNew(Config{Stripes: stripes, LockSpec: "mcs-stp", ReadPath: "optimistic"})
	for k := uint64(0); k < keys; k++ {
		m.Put(k, k)
	}
	timeout, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var classCtx [NumClasses]context.Context
	for c := range classCtx {
		classCtx[c] = WithClass(timeout, c)
	}
	base := m.Snapshot().Counters

	var (
		gets     atomic.Uint64
		puts     atomic.Uint64
		budgeted [NumClasses]atomic.Uint64
	)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(keys))
			if c := i % (NumClasses + 1); c < NumClasses {
				if _, err := m.PutContext(classCtx[c], k, k); err != nil {
					t.Errorf("PutContext: %v", err)
					return
				}
				budgeted[c].Add(1)
			} else {
				m.Put(k, k)
			}
			puts.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perReader; i++ {
				k := uint64(rng.Intn(keys))
				var v uint64
				var ok bool
				var err error
				switch op := rng.Intn(2 + NumClasses); op {
				case 0:
					v, ok = m.Get(k)
				case 1:
					v, ok, err = m.GetContext(context.Background(), k)
				default:
					v, ok, err = m.GetContext(classCtx[op-2], k)
					budgeted[op-2].Add(1)
				}
				gets.Add(1)
				if err != nil || !ok || v != k {
					t.Errorf("Get(%d) = %d, %v, %v", k, v, ok, err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	delta := m.Snapshot().Counters.Sub(base)
	if got, want := delta.OptimisticHits+delta.OptimisticFallbacks, gets.Load(); got != want {
		t.Errorf("hits %d + fallbacks %d = %d, want the %d Gets issued",
			delta.OptimisticHits, delta.OptimisticFallbacks, got, want)
	}
	for c := 0; c < NumClasses; c++ {
		if got, want := delta.ClassDeadlineAttempts[c], budgeted[c].Load(); got != want {
			t.Errorf("class %d: %d deadline attempts, want the %d budgeted ops", c, got, want)
		}
	}
	if delta.DeadlineMisses != 0 {
		t.Errorf("%d deadline misses under an hour's budget", delta.DeadlineMisses)
	}
	if got, want := delta.Lock.Acquires, puts.Load()+delta.OptimisticFallbacks+stripes; got != want {
		t.Errorf("lock acquires %d, want puts %d + fallbacks %d + %d snapshot visits",
			got, puts.Load(), delta.OptimisticFallbacks, stripes)
	}
	t.Logf("%d Gets: %d hits, %d retries, %d fallbacks; %d Puts",
		gets.Load(), delta.OptimisticHits, delta.OptimisticRetries, delta.OptimisticFallbacks, puts.Load())
}
