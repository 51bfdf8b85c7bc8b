package lock

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contextLocks enumerates the locks under cancellation test via the
// registry (the single source of truth for names), each bare and under
// restriction at admission ("?cr=true"); null is excluded because it
// provides no exclusion to verify.
func contextLocks() []string {
	var names, twins []string
	for _, n := range Names() {
		if n != "null" {
			names = append(names, n)
			twins = append(twins, n+"?cr=true")
		}
	}
	return append(names, twins...)
}

// param appends one key=value parameter to a lock spec.
func param(spec, kv string) string {
	if strings.Contains(spec, "?") {
		return spec + "&" + kv
	}
	return spec + "?" + kv
}

// TestCancelStress is the central cancellation soak: goroutines hammer
// each lock with a mix of plain Lock and LockContext under randomly
// expiring deadlines, asserting
//
//   - mutual exclusion holds throughout (unprotected counter + occupancy),
//   - no acquisition is lost or double-counted: successful acquisitions
//     equal critical-section executions,
//   - Cancels reconciles exactly with the observed error returns,
//   - Abandons never exceeds Cancels (every excised node was cancelled),
//   - the lock remains fully usable after the storm (no stranded waiter,
//     no corrupted chain): a sequential drain completes.
//
// Run with -race in CI (the "Cancel" stage).
func TestCancelStress(t *testing.T) {
	iters := 400
	if raceEnabled {
		iters = 120
	}
	for _, name := range contextLocks() {
		// Every queued waiter parks at once: the abandon CAS must win or
		// lose cleanly against a grant, and the yield that follows a grant
		// to a parked waiter must not lose or repeat one. The subtest is
		// named for that one waiting shape, spin-then-park.
		t.Run(name, func(t *testing.T) {
			t.Run("wait=stp", func(t *testing.T) {
				cancelStress(t, MustNew(param(name, "seed=1")).(ContextMutex), 8, iters, false)
			})
		})
	}
}

// TestCancelStressPinned is TestCancelStress on kernel threads, for
// every lock: each worker is locked to its own OS thread, with GOMAXPROCS
// equal to the worker count, so a park is a futex sleep and every race
// window between a grant, an abandon and an admission is as wide as a
// thread wakeup. The cr locks are built at a quarter of that GOMAXPROCS,
// so their cap binds and the surplus workers pass through the passive
// stack.
func TestCancelStressPinned(t *testing.T) {
	const workers = 8
	iters := 1000
	if raceEnabled {
		iters = 400
	}
	for _, name := range contextLocks() {
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(workers / 4)
			m := MustNew(param(name, "seed=1")).(ContextMutex)
			runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			cancelStress(t, m, workers, iters, true)
		})
	}
}

// cancelStress runs the soak TestCancelStress describes on m: goroutines
// workers, iters acquisitions each. Pinned, every worker runs on its own
// OS thread and holds the lock a little longer, so arrivals overlap.
func cancelStress(t *testing.T, m ContextMutex, goroutines, iters int, pinned bool) {
	t.Helper()
	var (
		unprotected int // data race if exclusion fails
		inside      atomic.Int32
		maxInside   atomic.Int32
		successes   atomic.Int64
		cancels     atomic.Int64
	)
	cs := func() {
		if v := inside.Add(1); v > maxInside.Load() {
			maxInside.Store(v)
		}
		unprotected++
		if pinned {
			benchSpin(200)
		}
		inside.Add(-1)
	}
	runWithTimeout(t, 120*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if pinned {
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
				}
				rng := uint64(id)*0x9e3779b97f4a7c15 + 1
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				for i := 0; i < iters; i++ {
					switch next() % 4 {
					case 0: // plain lock
						m.Lock()
						cs()
						m.Unlock()
						successes.Add(1)
					case 1: // uncancellable context
						if err := m.LockContext(context.Background()); err != nil {
							t.Errorf("Background LockContext failed: %v", err)
							return
						}
						cs()
						m.Unlock()
						successes.Add(1)
					default: // racing deadline, 0–40µs
						d := time.Duration(next()%41) * time.Microsecond
						ctx, cancel := context.WithTimeout(context.Background(), d)
						err := m.LockContext(ctx)
						cancel()
						if err != nil {
							if !errors.Is(err, context.DeadlineExceeded) {
								t.Errorf("unexpected LockContext error: %v", err)
								return
							}
							cancels.Add(1)
						} else {
							cs()
							m.Unlock()
							successes.Add(1)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if got := int64(unprotected); got != successes.Load() {
		t.Errorf("mutual exclusion violated: %d CS executions vs %d successful acquisitions",
			got, successes.Load())
	}
	if maxInside.Load() != 1 {
		t.Errorf("critical section occupancy reached %d", maxInside.Load())
	}
	// Post-storm liveness: the lock must still cycle cleanly.
	runWithTimeout(t, 60*time.Second, func() {
		for i := 0; i < 100; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	snap := m.(Instrumented).Stats()
	if snap.Cancels != uint64(cancels.Load()) {
		t.Errorf("Cancels=%d does not reconcile with %d observed timeouts",
			snap.Cancels, cancels.Load())
	}
	if snap.Abandons > snap.Cancels {
		t.Errorf("Abandons=%d exceeds Cancels=%d", snap.Abandons, snap.Cancels)
	}
	if want := successes.Load(); snap.Acquires != uint64(want) {
		// The drain above adds 100 more.
		if snap.Acquires != uint64(want)+100 {
			t.Errorf("Acquires=%d, want %d (+100 drain)", snap.Acquires, want)
		}
	}
	if c, ok := m.(*crLock); ok {
		if p, w := c.passive.Load(), c.waiters.Load(); p != 0 || w != 0 {
			t.Errorf("cr at quiescence: %d passive, %d admitted waiters; want 0 and 0", p, w)
		}
	}
}

// TestCancelParkedWaiter pins the hardest path: a waiter that has fully
// parked must notice cancellation promptly, abandon its slot, and leave
// the lock usable (the abandoned node excised by the next unlock).
func TestCancelParkedWaiter(t *testing.T) {
	for _, name := range contextLocks() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(param(name, "seed=2")).(ContextMutex)
			m.Lock()
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- m.LockContext(ctx) }()
			time.Sleep(50 * time.Millisecond) // let the waiter park
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("LockContext = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked waiter ignored cancellation")
			}
			m.Unlock() // must excise the abandoned node, not hand off to it
			runWithTimeout(t, 30*time.Second, func() {
				for i := 0; i < 10; i++ {
					m.Lock()
					m.Unlock()
				}
			})
		})
	}
}

// TestCancelChainExcision abandons a waiter in the middle of a real
// queue (holder + 3 waiters), then checks the survivors all acquire.
func TestCancelChainExcision(t *testing.T) {
	for _, name := range contextLocks() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(param(name, "seed=3")).(ContextMutex)
			m.Lock()
			ctx, cancel := context.WithCancel(context.Background())
			var acquired atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, 1)
			wg.Add(1)
			go func() { // the doomed middle waiter
				defer wg.Done()
				errc <- m.LockContext(ctx)
			}()
			time.Sleep(20 * time.Millisecond)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() { // survivors
					defer wg.Done()
					m.Lock()
					acquired.Add(1)
					m.Unlock()
				}()
			}
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-errc; err == nil {
				// The doomed waiter may legitimately win a handoff race
				// before noticing cancellation (grant-wins); release.
				acquired.Add(1)
				m.Unlock()
			}
			m.Unlock()
			runWithTimeout(t, 60*time.Second, wg.Wait)
			if got := acquired.Load(); got < 3 {
				t.Fatalf("only %d survivors acquired after excision", got)
			}
		})
	}
}

// TestLockContextPreCancelled: an already-dead context must fail fast,
// count one cancel, and leave no trace in the waiter structures.
func TestLockContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name).(ContextMutex)
			if err := m.LockContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("LockContext(cancelled) = %v, want context.Canceled", err)
			}
			// The failed attempt must not have disturbed the lock.
			if !m.TryLock() {
				t.Fatal("lock unusable after fail-fast cancellation")
			}
			m.Unlock()
		})
	}
}

// TestLockContextBackground: an uncancellable context is exactly Lock.
func TestLockContextBackground(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name).(ContextMutex)
			if err := m.LockContext(context.Background()); err != nil {
				t.Fatalf("Background LockContext: %v", err)
			}
			m.Unlock()
		})
	}
}

// lockFor is a wait bounded by a duration: LockContext under a deadline d
// from now.
func lockFor(m ContextMutex, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.LockContext(ctx)
}

// TestLockContextDeadline: a wait bounded by a duration of zero or less is
// TryLock, and a positive one is a deadline context — it gives up at the
// deadline, not before, and takes a release that comes inside it.
func TestLockContextDeadline(t *testing.T) {
	for _, name := range contextLocks() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name).(ContextMutex)
			// Free lock: immediate success, with no budget.
			if !m.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
			// Held lock, no budget: immediate failure.
			if m.TryLock() {
				t.Fatal("TryLock on a held lock succeeded")
			}
			for _, d := range []time.Duration{0, -time.Second} {
				if err := lockFor(m, d); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("deadline %v from now on a held lock: %v", d, err)
				}
			}
			// Held lock, short budget: timed failure.
			const budget = 20 * time.Millisecond
			start := time.Now()
			if err := lockFor(m, budget); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("a %v wait on a held lock: %v", budget, err)
			}
			if waited := time.Since(start); waited < budget || waited > 5*time.Second {
				t.Fatalf("a %v wait on a held lock gave up after %v", budget, waited)
			}
			m.Unlock()
			// Contended but released within the budget: success.
			release := make(chan struct{})
			m.Lock()
			done := make(chan error, 1)
			go func() {
				<-release
				time.Sleep(10 * time.Millisecond)
				m.Unlock()
			}()
			go func() { close(release); done <- lockFor(m, 30*time.Second) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("missed a release inside the budget: %v", err)
				}
				m.Unlock()
			case <-time.After(60 * time.Second):
				t.Fatal("a bounded wait hung")
			}
		})
	}
}

// TestMCSCRCancelOnPassiveList drives a waiter into the passive set and
// cancels it there: the passive-list pops must filter the abandoned node
// and the PS must fully drain afterwards. Culling happens only at unlock,
// so the test cycles the lock: behind the holder queue the doomed waiter
// A, then B and C; the holder's unlock culls A (it has two successors)
// and grants B. A is cancelled while B holds, so nothing can grant it.
func TestMCSCRCancelOnPassiveList(t *testing.T) {
	cancelOnPassiveList(t, false)
}

// TestMCSCRCancelOnPassiveListPinned repeats that script on kernel
// threads for a few hundred milliseconds: the holder and A, B and C
// each locked to their own OS thread, GOMAXPROCS equal to those four,
// so each park is a futex sleep and the cull, the cancel and the pops
// race across thread wakeups. Every round's Cancels must reconcile
// exactly with the one error A returns.
func TestMCSCRCancelOnPassiveListPinned(t *testing.T) {
	const workers = 4 // the holder, A, B and C
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rounds := 0
	for start := time.Now(); rounds < 20 || time.Since(start) < 200*time.Millisecond; rounds++ {
		cancelOnPassiveList(t, true)
		if t.Failed() {
			break
		}
	}
	t.Logf("%d pinned rounds", rounds)
}

// spawn starts f on a new goroutine, locked to its own OS thread when
// pinned.
func spawn(pinned bool, f func()) {
	go func() {
		if pinned {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		f()
	}()
}

// cancelOnPassiveList is one run of TestMCSCRCancelOnPassiveList's
// script on a fresh lock, its waiters pinned to OS threads or not.
func cancelOnPassiveList(t *testing.T, pinned bool) {
	t.Helper()
	m := MustNew("mcscr-stp?seed=5&fairness=0").(*MCSCR)
	deadline := time.Now().Add(30 * time.Second)
	// enqueue starts f and waits until its acquisition has linked its node
	// behind the current tail: the cull reads those links.
	enqueue := func(f func()) {
		tail := m.tail.Load()
		spawn(pinned, f)
		if !waitUntil(deadline, func() bool { return tail.next.Load() != nil }) {
			t.Fatal("waiter never enqueued")
		}
	}
	m.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	enqueue(func() { errc <- m.LockContext(ctx) })
	acquired, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // B, then C
		wg.Add(1)
		enqueue(func() {
			defer wg.Done()
			m.Lock()
			acquired <- struct{}{}
			<-release
			m.Unlock()
		})
	}
	awaitAcquired := func() { runWithTimeout(t, 30*time.Second, func() { <-acquired }) }
	m.Unlock()
	awaitAcquired() // B owns the lock
	if s := m.Stats(); s.Culls != 1 || m.PassiveSize() != 1 {
		t.Fatalf("Culls %d, passive size %d after the first unlock; want 1 and 1", s.Culls, m.PassiveSize())
	}
	cancel()
	var err error
	runWithTimeout(t, 30*time.Second, func() { err = <-errc })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter on the passive list: LockContext = %v, want context.Canceled", err)
	}
	close(release)
	awaitAcquired() // C: B's unlock granted it, and C's unlock pops the abandoned A
	runWithTimeout(t, 30*time.Second, wg.Wait)
	if ps := m.PassiveSize(); ps != 0 {
		t.Fatalf("passive set retained %d abandoned entries", ps)
	}
	if s := m.Stats(); s.Cancels != 1 || s.Abandons != 1 || s.Acquires != 3 {
		t.Fatalf("Cancels %d, Abandons %d, Acquires %d; want 1, 1 and 3", s.Cancels, s.Abandons, s.Acquires)
	}
	runWithTimeout(t, 30*time.Second, func() {
		m.Lock()
		m.Unlock()
	})
}

// countingCtx counts the Done calls made on the context it wraps.
type countingCtx struct {
	context.Context
	dones atomic.Int64
}

func (c *countingCtx) Done() <-chan struct{} {
	c.dones.Add(1)
	return c.Context.Done()
}

// TestLockContextAsksDoneOnlyToWait pins, for every lock, when the
// context's cancellation machinery is touched at all: never by an
// uncontended acquisition and never to reject a context that is already
// done (Err alone decides that, with exactly one Cancels), but always by
// a waiter — which still abandons at its deadline, and still keeps a
// grant that races it.
func TestLockContextAsksDoneOnlyToWait(t *testing.T) {
	for _, name := range contextLocks() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(param(name, "seed=7")).(ContextMutex)
			stats := m.(Instrumented).Stats

			live, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			ctx := &countingCtx{Context: live}
			for i := 0; i < 3; i++ {
				if err := m.LockContext(ctx); err != nil {
					t.Fatalf("uncontended LockContext: %v", err)
				}
				m.Unlock()
			}
			if n := ctx.dones.Load(); n != 0 {
				t.Fatalf("uncontended LockContext called Done %d times", n)
			}

			past, cancelPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancelPast()
			ctx = &countingCtx{Context: past}
			if err := m.LockContext(ctx); err != past.Err() {
				t.Fatalf("LockContext(expired) = %v, want the context's own %v", err, past.Err())
			}
			if s := stats(); s.Cancels != 1 || ctx.dones.Load() != 0 {
				t.Fatalf("expired context: Cancels %d, Done calls %d; want 1 and 0", s.Cancels, ctx.dones.Load())
			}

			// A waiter behind a held lock gives up at its deadline, not
			// before, and it has asked for Done by then.
			m.Lock()
			const budget = 20 * time.Millisecond
			start := time.Now() // before the deadline is fixed, or the wait can read short of the budget
			brief, cancelBrief := context.WithTimeout(context.Background(), budget)
			defer cancelBrief()
			ctx = &countingCtx{Context: brief}
			var err error
			runWithTimeout(t, 30*time.Second, func() { err = m.LockContext(ctx) })
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter behind a held lock: %v", err)
			}
			if waited := time.Since(start); waited < budget {
				t.Fatalf("waiter abandoned after %v of a %v budget", waited, budget)
			}
			if s := stats(); s.Cancels != 2 || ctx.dones.Load() == 0 {
				t.Fatalf("abandoned waiter: Cancels %d, Done calls %d; want 2 and at least 1", s.Cancels, ctx.dones.Load())
			}
			m.Unlock()

			// Grant-wins: the holder lets go right at the waiter's
			// deadline. Either outcome is legal; what must hold is that a
			// nil return is a real acquisition even though ctx is done by
			// then, and that only the error returns count as Cancels.
			var won, lost uint64
			held := 0 // written only under m
			for i := 0; i < 40; i++ {
				m.Lock()
				held++
				racing, cancelRacing := context.WithTimeout(context.Background(), time.Millisecond)
				release := make(chan struct{})
				go func() {
					<-racing.Done()
					held--
					m.Unlock()
					close(release)
				}()
				runWithTimeout(t, 30*time.Second, func() { err = m.LockContext(racing) })
				if err == nil {
					if held != 0 {
						t.Fatalf("round %d: LockContext returned nil while the lock was held", i)
					}
					m.Unlock()
					won++
				} else {
					lost++
				}
				<-release
				cancelRacing()
			}
			if s := stats(); s.Cancels != 2+lost {
				t.Fatalf("grant-wins rounds: %d granted, %d abandoned, but Cancels grew by %d", won, lost, s.Cancels-2)
			}
			runWithTimeout(t, 30*time.Second, func() {
				m.Lock()
				m.Unlock()
			})
		})
	}
}
