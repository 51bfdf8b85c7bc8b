package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// oneP runs the rest of the test on a single P, where scheduling is a
// script: a goroutine runs until it blocks or yields, and a yield runs
// every other runnable goroutine first.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// letOthersRun yields until every other goroutine has blocked or, if it
// spins, has had several quanta. The handoff tests build their locks with
// arrivals=1 so a LOITER waiter goes straight to the inner queue: a
// parking waiter then meets no yield on the way to its parker, so one
// pass would do.
func letOthersRun() {
	for i := 0; i < 8; i++ {
		runtime.Gosched()
	}
}

// handoffSpec builds name for the one-P order tests. arrivals is a LOITER
// parameter; the other locks' grammar accepts and ignores it.
func handoffSpec(name string) string { return name + "?seed=1&arrivals=1" }

// order is an append-only log two goroutines write without the lock.
type order struct {
	mu  sync.Mutex
	log []string
}

func (o *order) add(s string) {
	o.mu.Lock()
	o.log = append(o.log, s)
	o.mu.Unlock()
}

func (o *order) String() string { return strings.Join(o.log, " ") }

// yieldAttempts is how often a test that expects a yield to have
// dispatched the woken waiter may replay its script. One dispatch in 61
// polls the global run queue first — where the yielder has just put
// itself — so a single replay can legitimately run the yielder on. The
// orders a test accepts never occur without the yield, so "one replay
// shows it" still tells the two apart.
const yieldAttempts = 3

// TestDirectedHandoff pins the directed handoff, per lock: A holds, B
// enqueues and parks, A unlocks and then logs "A", B logs "B" once it
// owns the lock. The unlock had to unpark B, so it must also have handed
// B the P: the log reads "B A". Without the yield B sits in runnext,
// owning the lock, until A next blocks — "A B".
func TestDirectedHandoff(t *testing.T) {
	oneP(t)
	for _, name := range stpLocks() {
		t.Run(name, func(t *testing.T) {
			var got string
			for try := 0; try < yieldAttempts && got != "B A"; try++ {
				m := MustNew(handoffSpec(name))
				var o order
				done := make(chan struct{})
				m.Lock()
				go func() {
					m.Lock()
					o.add("B")
					m.Unlock()
					close(done)
				}()
				letOthersRun() // B parks
				m.Unlock()
				o.add("A")
				<-done
				got = o.String()
				// The precondition, after the fact: B was granted while parked.
				if s := m.(Instrumented).Stats(); s.Parks != 1 || s.Unparks != 1 {
					t.Fatalf("Parks %d, Unparks %d; want 1 and 1 (B was not parked at the grant)", s.Parks, s.Unparks)
				}
			}
			if got != "B A" {
				t.Errorf("order %q, want %q: the unlock did not yield to the waiter it unparked", got, "B A")
			}
		})
	}
}

// TestHandoffToSpinnerDoesNotYield is the other half: a successor granted
// before it parked — in the paper's terms still spinning, here between its
// enqueue and its park — is running already, so the unlock that grants it
// on the waiting→granted edge keeps its P. The queue is staged by hand:
// the test enqueues a node and never waits on it, so the grant must find
// the cell waiting. C is made runnable before the unlock; had the unlock
// yielded, C would log before A.
func TestHandoffToSpinnerDoesNotYield(t *testing.T) {
	oneP(t)
	for _, name := range stpLocks() {
		t.Run(name, func(t *testing.T) {
			st := stageWaiting(t, MustNew(name))
			before := st.stats()
			var o order
			done := make(chan struct{})
			go func() {
				o.add("C")
				close(done)
			}()
			st.unlock()
			o.add("A")
			<-done
			if got := o.String(); got != "A C" {
				t.Errorf("order %q, want %q: the unlock yielded to a successor that had not parked", got, "A C")
			}
			if s := st.cell.state.Load(); s != stateGranted {
				t.Fatalf("waiting cell in state %d after the unlock, want granted", s)
			}
			if s := st.stats(); s.Handoffs != before.Handoffs+1 || s.Unparks != before.Unparks {
				t.Errorf("Handoffs %d → %d, Unparks %d → %d; want +1 and +0",
					before.Handoffs, s.Handoffs, before.Unparks, s.Unparks)
			}
			st.release()
		})
	}
}

// staged is a queue lock held with one waiter enqueued behind the holder
// that never parks: cell is what the unlock grants, stats counts the
// grant, and release finishes the waiter's acquisition and unlocks.
type staged struct {
	cell            *waitCell
	unlock, release func()
	stats           func() core.Snapshot
}

func stageWaiting(t *testing.T, m Mutex) staged {
	switch l := m.(type) {
	case *MCS:
		return stageChain(l.Lock, l.Unlock, &l.tail, &l.owner, l.Stats)
	case *MCSCR:
		return stageChain(l.Lock, l.Unlock, &l.tail, &l.owner, l.Stats)
	case *LOITER:
		// LOITER queues on its inner MCS lock; the outer word has no waiters.
		return stageChain(l.inner.Lock, l.inner.Unlock, &l.inner.tail, &l.inner.owner, l.InnerStats)
	case *LIFOCR:
		l.Lock()
		n := newLifoNode()
		l.top.Store(n) // pushed on the holder's empty stack
		return staged{&n.waitCell, l.Unlock, func() { freeLifoNode(n); l.Unlock() }, l.Stats}
	}
	t.Fatalf("no waiter staging for %T", m)
	return staged{}
}

// stageChain stages an MCS chain: the holder's node, then n.
func stageChain(lock, unlock func(), tail *atomic.Pointer[mcsNode], owner **mcsNode, stats func() core.Snapshot) staged {
	lock()
	n := newMCSNode()
	tail.Swap(n).next.Store(n)
	return staged{&n.waitCell, unlock, func() { *owner = n; unlock() }, stats}
}

// TestHandoffPastAbandonedWaiter: B parks under a context and is
// cancelled there, C parks behind it. A's unlock must skip B's abandoned
// slot, grant C, and yield to C — once: the grant is neither lost with B
// nor announced twice.
func TestHandoffPastAbandonedWaiter(t *testing.T) {
	oneP(t)
	for _, name := range stpLocks() {
		t.Run(name, func(t *testing.T) {
			var got string
			for try := 0; try < yieldAttempts && got != "C A"; try++ {
				m := MustNew(handoffSpec(name)).(ContextMutex)
				var o order
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errc := make(chan error, 1)
				done := make(chan struct{})
				m.Lock()
				go func() { errc <- m.LockContext(ctx) }()
				letOthersRun() // B parks
				go func() {
					m.Lock()
					o.add("C")
					m.Unlock()
					close(done)
				}()
				letOthersRun() // C parks behind B
				cancel()
				if err := <-errc; !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled waiter: LockContext = %v, want context.Canceled", err)
				}
				letOthersRun() // LOITER: C, elevated by B's resignation, parks as standby
				m.Unlock()
				o.add("A")
				<-done
				got = o.String()
				s := m.(Instrumented).Stats()
				if s.Acquires != 2 || s.Cancels != 1 || s.Unparks != 1 {
					t.Fatalf("Acquires %d, Cancels %d, Unparks %d; want 2, 1 and 1", s.Acquires, s.Cancels, s.Unparks)
				}
			}
			if got != "C A" {
				t.Errorf("order %q, want %q", got, "C A")
			}
		})
	}
}

// TestCancelHandoffPinned is the handoff grants above on kernel threads,
// with the grant and the cancel racing: the holder A, a waiter B under
// a context and a plain waiter C, each locked to its own OS thread with
// GOMAXPROCS equal to those three, so each park is a futex sleep and a
// wakeup takes a thread switch. Per round, once B and then C have
// parked, A cancels B's context and unlocks — in either order, a random
// spin apart — so B's abandon races A's grant across the widest window
// the lock ever sees. B may win the lock or return context.Canceled;
// either way C is granted, and over a few hundred milliseconds of
// rounds the lock's Cancels must equal B's errors exactly, its Acquires
// every granted acquisition, and its Abandons stay within its Cancels.
func TestCancelHandoffPinned(t *testing.T) {
	const workers = 3 // A, B and C
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	runtime.LockOSThread() // the test goroutine is A
	defer runtime.UnlockOSThread()
	for _, name := range stpLocks() {
		t.Run(name, func(t *testing.T) {
			m := MustNew(handoffSpec(name)).(ContextMutex)
			stats := m.(Instrumented).Stats
			var (
				inside, maxInside atomic.Int32
				granted, cancels  uint64
			)
			cs := func() {
				if v := inside.Add(1); v > maxInside.Load() {
					maxInside.Store(v)
				}
				inside.Add(-1)
			}
			// arrive starts f on a pinned thread and waits until m shows a
			// new waiter parked.
			arrive := func(f func()) {
				parks := stats().Parks
				before, _ := newestWaiter(m, parks)
				spawn(true, f)
				deadline := time.Now().Add(30 * time.Second)
				if !waitUntil(deadline, func() bool {
					n, parked := newestWaiter(m, parks)
					return n != before && parked
				}) {
					panic("waiter never parked") // a Fatal would leave A holding the lock for the parked waiters
				}
			}
			rng := uint64(0x9e3779b97f4a7c15)
			rounds := 0
			for start := time.Now(); rounds < 20 || time.Since(start) < 75*time.Millisecond; rounds++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				ctx, cancel := context.WithCancel(context.Background())
				errc := make(chan error, 1)
				done := make(chan struct{})
				m.Lock()
				cs()
				granted++
				arrive(func() {
					err := m.LockContext(ctx)
					if err == nil {
						cs()
						m.Unlock()
					}
					errc <- err
				})
				arrive(func() {
					m.Lock()
					cs()
					m.Unlock()
					close(done)
				})
				// Up to ~50 µs apart: longer than a pinned waiter takes to
				// wake, so either side can win.
				spin := int(rng>>1) % (1 << 17)
				if rng&1 == 0 {
					cancel()
					benchSpin(spin)
					m.Unlock()
				} else {
					m.Unlock()
					benchSpin(spin)
					cancel()
				}
				var err error
				runWithTimeout(t, 30*time.Second, func() {
					err = <-errc
					<-done
				})
				switch {
				case err == nil:
					granted++
				case errors.Is(err, context.Canceled):
					cancels++
				default:
					t.Fatalf("round %d: B's LockContext = %v", rounds, err)
				}
				granted++ // C
			}
			s := stats()
			if s.Cancels != cancels {
				t.Errorf("Cancels %d does not reconcile with %d returned errors", s.Cancels, cancels)
			}
			if s.Acquires != granted {
				t.Errorf("Acquires %d, want %d granted acquisitions", s.Acquires, granted)
			}
			if s.Abandons > s.Cancels {
				t.Errorf("Abandons %d exceeds Cancels %d", s.Abandons, s.Cancels)
			}
			if maxInside.Load() != 1 {
				t.Errorf("critical section occupancy reached %d", maxInside.Load())
			}
			runWithTimeout(t, 30*time.Second, func() {
				m.Lock()
				m.Unlock()
			})
			t.Logf("%d pinned rounds: B granted %d, cancelled %d", rounds, uint64(rounds)-cancels, cancels)
		})
	}
}

// newestWaiter returns the record of the newest waiter queued on queue
// lock m, and whether that waiter has parked. A LOITER's first slow-path
// waiter takes the inner lock and parks as the standby, on a parker of
// its own with no state to read, so it counts as parked once m's Parks
// has passed parks (a standby counts its Park just before it parks); the
// waiters behind it park in the inner queue.
func newestWaiter(m Mutex, parks uint64) (any, bool) {
	parked := func(w *waitCell) bool { return w.state.Load() == stateParked }
	switch l := m.(type) {
	case *MCS:
		n := l.tail.Load()
		return n, n != nil && parked(&n.waitCell)
	case *MCSCR:
		n := l.tail.Load()
		return n, n != nil && parked(&n.waitCell)
	case *LIFOCR:
		n := l.top.Load()
		return n, n != nil && n != &l.lockedEmpty && parked(&n.waitCell)
	case *LOITER:
		if n := l.inner.tail.Load(); n != nil && parked(&n.waitCell) {
			return n, true
		}
		sb := l.standby.Load()
		return sb, sb != nil && l.Stats().Parks > parks
	}
	panic(fmt.Sprintf("no waiter record for %T", m))
}
