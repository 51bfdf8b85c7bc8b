package semaphore

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(leakcheck.Run(m))
}

func TestAcquireReleaseSequential(t *testing.T) {
	s := NewFIFO(2)
	s.Acquire()
	s.Acquire()
	if s.TryAcquire() {
		t.Fatal("TryAcquire succeeded with zero permits")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire failed with one permit")
	}
	s.Release()
	s.Release()
	if s.Count() != 2 {
		t.Fatalf("count=%d want 2", s.Count())
	}
}

func TestNegativeInitialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, FIFO, 0)
}

func TestBlockingAcquire(t *testing.T) {
	s := NewFIFO(0)
	done := make(chan struct{})
	go func() {
		s.Acquire()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Acquire with zero permits did not block")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not wake the waiter")
	}
}

func TestPermitConservation(t *testing.T) {
	// N goroutines hammer a K-permit semaphore; at most K may ever be
	// inside, and all permits return at the end.
	for name, p := range map[string]float64{"FIFO": FIFO, "MostlyLIFO": MostlyLIFO, "LIFO": LIFO} {
		t.Run(name, func(t *testing.T) {
			const permits, goroutines, iters = 3, 10, 300
			s := New(permits, p, 7)
			var inside, maxInside atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						s.Acquire()
						v := inside.Add(1)
						for {
							m := maxInside.Load()
							if v <= m || maxInside.CompareAndSwap(m, v) {
								break
							}
						}
						inside.Add(-1)
						s.Release()
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("semaphore stalled (lost permit?)")
			}
			if maxInside.Load() > permits {
				t.Fatalf("%d goroutines inside a %d-permit semaphore", maxInside.Load(), permits)
			}
			if s.Count() != permits {
				t.Fatalf("permits leaked: count=%d want %d", s.Count(), permits)
			}
			if s.Waiters() != 0 {
				t.Fatalf("waiters left: %d", s.Waiters())
			}
		})
	}
}

// acquireFor is the timed acquire: AcquireContext under a deadline d
// from now.
func acquireFor(s *Semaphore, d time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.AcquireContext(ctx) == nil
}

func TestAcquireContextDeadline(t *testing.T) {
	s := NewFIFO(0)
	start := time.Now()
	if acquireFor(s, 20*time.Millisecond) {
		t.Fatal("acquired a permit that does not exist")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("timed acquire gave up after %v of a 20ms budget", waited)
	}
	if s.Waiters() != 0 {
		t.Fatal("timed-out waiter left on queue")
	}
	s.Release()
	if !acquireFor(s, 20*time.Millisecond) {
		t.Fatal("failed to acquire an available permit")
	}
	// Late release must reach a timed waiter.
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Release()
	}()
	if !acquireFor(s, 5*time.Second) {
		t.Fatal("missed a permit released before the deadline")
	}
}

func TestDirectHandoffNoBarge(t *testing.T) {
	// With a waiter queued, TryAcquire must not steal the permit conveyed
	// by Release.
	s := NewFIFO(0)
	acquired := make(chan struct{})
	go func() {
		s.Acquire()
		close(acquired)
	}()
	for s.Waiters() == 0 {
		runtime.Gosched()
	}
	s.Release()
	if s.TryAcquire() {
		t.Fatal("TryAcquire stole a directly handed-off permit")
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("handoff lost")
	}
}

func TestLIFOWakeOrder(t *testing.T) {
	s := New(0, LIFO, 1)
	const n = 5
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			s.Acquire()
			order <- i
		}()
		for s.Waiters() != i+1 {
			runtime.Gosched()
		}
	}
	for i := n - 1; i >= 0; i-- {
		s.Release()
		if got := <-order; got != i {
			t.Fatalf("LIFO release woke %d, want %d", got, i)
		}
	}
}

func TestFIFOWakeOrder(t *testing.T) {
	s := NewFIFO(0)
	const n = 5
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			s.Acquire()
			order <- i
		}()
		for s.Waiters() != i+1 {
			runtime.Gosched()
		}
	}
	for i := 0; i < n; i++ {
		s.Release()
		if got := <-order; got != i {
			t.Fatalf("FIFO release woke %d, want %d", got, i)
		}
	}
}

func TestAcquireContextFailFast(t *testing.T) {
	s := NewFIFO(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AcquireContext(ctx); err != context.Canceled {
		t.Fatalf("AcquireContext(done)=%v want context.Canceled", err)
	}
	if s.Count() != 1 {
		t.Fatalf("fail-fast consumed a permit: count=%d", s.Count())
	}
	if s.Waiters() != 0 {
		t.Fatalf("fail-fast joined the queue: waiters=%d", s.Waiters())
	}
	if c := s.Stats().Cancels; c != 1 {
		t.Fatalf("Cancels=%d want 1", c)
	}
}

func TestAcquireContextUncancellable(t *testing.T) {
	s := NewFIFO(1)
	if err := s.AcquireContext(context.Background()); err != nil {
		t.Fatalf("AcquireContext(Background)=%v", err)
	}
	s.Release()
	if err := s.AcquireContext(nil); err != nil {
		t.Fatalf("AcquireContext(nil)=%v", err)
	}
	s.Release()
}

func TestAcquireContextCancelWhileWaiting(t *testing.T) {
	s := NewFIFO(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.AcquireContext(ctx); err != context.DeadlineExceeded {
		t.Fatalf("AcquireContext on empty semaphore=%v want DeadlineExceeded", err)
	}
	if s.Waiters() != 0 {
		t.Fatalf("cancelled waiter left on queue: %d", s.Waiters())
	}
	// A Release after the abandonment must become a visible permit, not a
	// conveyance to the departed waiter.
	s.Release()
	if s.Count() != 1 {
		t.Fatalf("permit leaked to a cancelled waiter: count=%d", s.Count())
	}
	if !acquireFor(s, time.Second) {
		t.Fatal("timed acquire missed the available permit")
	}
}

func TestNoStats(t *testing.T) {
	s := NewFIFO(1).NoStats()
	s.Acquire()
	s.Release()
	if !acquireFor(s, time.Second) {
		t.Fatal("timed acquire failed with a permit available")
	}
	s.Release()
	if snap := s.Stats(); snap.Acquires != 0 {
		t.Fatalf("NoStats semaphore counted %d acquires", snap.Acquires)
	}
}

// TestAcquireContextExpiredDeadline: a wait bounded by zero or less is
// TryAcquire. A deadline already past fails fast — even with a permit
// available, and without consuming it.
func TestAcquireContextExpiredDeadline(t *testing.T) {
	s := NewFIFO(1)
	for _, d := range []time.Duration{0, -time.Second} {
		if acquireFor(s, d) {
			t.Fatalf("deadline %v from now acquired a permit", d)
		}
	}
	if s.Count() != 1 || s.Waiters() != 0 {
		t.Fatalf("expired deadlines disturbed the semaphore: count=%d waiters=%d", s.Count(), s.Waiters())
	}
	if !s.TryAcquire() {
		t.Fatal("TryAcquire failed with a permit available")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire acquired a permit that does not exist")
	}
	s.Release()
}

// TestCancelStormConservation is the grant-vs-abandon stress: goroutines
// hammer a small semaphore with short and already-expired deadlines while
// successful acquirers release. No permit may leak in either direction,
// and the Cancels counter must reconcile exactly with the observed error
// returns.
func TestCancelStormConservation(t *testing.T) {
	for name, p := range map[string]float64{"FIFO": FIFO, "MostlyLIFO": MostlyLIFO, "LIFO": LIFO} {
		t.Run(name, func(t *testing.T) {
			const permits, goroutines, iters = 2, 8, 400
			s := New(permits, p, 11)
			var succ, fail atomic.Int64
			var inside, maxInside atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					for i := 0; i < iters; i++ {
						var ctx context.Context
						cancel := context.CancelFunc(func() {})
						switch rng.Intn(3) {
						case 0: // already expired: deterministic fail-fast
							c, cfn := context.WithCancel(context.Background())
							cfn()
							ctx, cancel = c, func() {}
						case 1: // tight deadline: races the handoff
							ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
						default: // generous deadline: normally succeeds
							ctx, cancel = context.WithTimeout(context.Background(), time.Second)
						}
						err := s.AcquireContext(ctx)
						cancel()
						if err != nil {
							fail.Add(1)
							continue
						}
						succ.Add(1)
						v := inside.Add(1)
						for {
							m := maxInside.Load()
							if v <= m || maxInside.CompareAndSwap(m, v) {
								break
							}
						}
						inside.Add(-1)
						s.Release()
					}
				}(g)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(120 * time.Second):
				t.Fatal("cancel storm stalled (lost permit?)")
			}
			if maxInside.Load() > permits {
				t.Fatalf("%d goroutines inside a %d-permit semaphore", maxInside.Load(), permits)
			}
			if s.Count() != permits {
				t.Fatalf("permits leaked: count=%d want %d", s.Count(), permits)
			}
			if s.Waiters() != 0 {
				t.Fatalf("waiters left: %d", s.Waiters())
			}
			snap := s.Stats()
			if snap.Cancels != uint64(fail.Load()) {
				t.Fatalf("Cancels=%d but %d error returns", snap.Cancels, fail.Load())
			}
			if snap.Acquires != uint64(succ.Load()) {
				t.Fatalf("Acquires=%d but %d successful returns", snap.Acquires, succ.Load())
			}
		})
	}
}

// TestBufferPoolPattern exercises the §6.11 buffer-pool usage: a pool of
// K buffers guarded by a CR semaphore.
func TestBufferPoolPattern(t *testing.T) {
	const buffers, goroutines, iters = 5, 12, 200
	s := NewMostlyLIFO(buffers)
	var mu sync.Mutex
	pool := make([]int, buffers)
	for i := range pool {
		pool[i] = i
	}
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		b := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return b
	}
	put := func(b int) {
		mu.Lock()
		defer mu.Unlock()
		pool = append(pool, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Acquire()
				b := take()
				put(b)
				s.Release()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("buffer pool stalled")
	}
	if len(pool) != buffers {
		t.Fatalf("buffers leaked: %d want %d", len(pool), buffers)
	}
}

// TestReleaseYieldsToWokenWaiter pins Release's directed handoff on one
// P: A holds the only permit, B parks for it, A releases and then logs.
// The permit went to B by direct handoff, so B must run with it before A
// goes on: "B A". One dispatch in 61 polls the global run queue first —
// where the yielder has just put itself — so the script may be replayed;
// without the yield the order is "A B" every time.
func TestReleaseYieldsToWokenWaiter(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var got string
	for try := 0; try < 3 && got != "B A"; try++ {
		s := NewFIFO(1)
		var mu sync.Mutex
		got = ""
		log := func(who string) {
			mu.Lock()
			got += who
			mu.Unlock()
		}
		done := make(chan struct{})
		s.Acquire()
		go func() {
			s.Acquire()
			log("B")
			s.Release()
			close(done)
		}()
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		runtime.Gosched() // B, enqueued, runs on into its parker
		s.Release()
		log(" A")
		<-done
		if st := s.Stats(); st.Parks != 1 || st.Unparks != 1 {
			t.Fatalf("Parks %d, Unparks %d; want 1 and 1", st.Parks, st.Unparks)
		}
	}
	if got != "B A" {
		t.Fatalf("order %q, want %q: Release did not yield to the waiter it woke", got, "B A")
	}
}
