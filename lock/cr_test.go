package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingMutex is a lock with its event counters.
type countingMutex interface {
	ContextMutex
	Instrumented
}

// gatedMutex is an inner lock whose gate-th TryLock call stops after it
// has read the lock word: it reports at on arrival and returns its result
// only once release is closed.
type gatedMutex struct {
	countingMutex
	calls       atomic.Int32
	gate        int32
	at, release chan struct{}
}

func (g *gatedMutex) TryLock() bool {
	ok := g.countingMutex.TryLock()
	if g.calls.Add(1) == g.gate {
		close(g.at)
		<-g.release
	}
	return ok
}

// newTestCR builds restriction at admission over inner with a fixed
// number of waiter slots, independent of the host's GOMAXPROCS.
func newTestCR(t *testing.T, inner Mutex, slots int32, opts ...Option) *crLock {
	t.Helper()
	c, err := newCR(inner, buildConfig(opts))
	if err != nil {
		t.Fatal(err)
	}
	c.slots = slots
	return c
}

// TestCRLostWakeup holds an entrant inside its second TryLock — after it
// has announced itself on the passive stack and read the lock word as
// held — while the last holder unlocks. The Unlock must see the
// announcement and admit the entrant; an entrant that read the lock
// before announcing would park with nobody left to wake it.
func TestCRLostWakeup(t *testing.T) {
	g := &gatedMutex{countingMutex: NewMCS(), gate: 3, at: make(chan struct{}), release: make(chan struct{})}
	c := newTestCR(t, g, 0)
	c.Lock() // TryLock call 1
	acquired := make(chan struct{})
	go func() {
		c.Lock() // call 2 misses; the entrant is culled; call 3 is gated
		close(acquired)
	}()
	runWithTimeout(t, 30*time.Second, func() { <-g.at })
	c.Unlock()
	close(g.release)
	runWithTimeout(t, 30*time.Second, func() { <-acquired })
	c.Unlock()
	if s := c.Stats(); s.Culls != 1 || s.Reprovisions != 1 || s.Acquires != 2 {
		t.Fatalf("Culls %d, Reprovisions %d, Acquires %d; want 1, 1 and 2", s.Culls, s.Reprovisions, s.Acquires)
	}
	if p, w := c.passive.Load(), c.waiters.Load(); p != 0 || w != 0 {
		t.Fatalf("%d passive, %d admitted waiters left; want 0 and 0", p, w)
	}
}

// awaitPassive waits until n goroutines sit on c's passive stack.
func awaitPassive(t *testing.T, c *crLock, n int32) {
	t.Helper()
	if !waitUntil(time.Now().Add(30*time.Second), func() bool { return c.passive.Load() == n }) {
		t.Fatalf("passive stack never reached %d (at %d)", n, c.passive.Load())
	}
}

// TestCRGrantVsAbandon stages both outcomes of the one CAS that decides
// between an admission's grant and a passive waiter's abandon.
func TestCRGrantVsAbandon(t *testing.T) {
	// The abandon wins, and an admission pops the abandoned node before
	// its waiter can unlink it: the test holds the latch across the
	// cancellation, so the waiter is stuck behind it. The admission must
	// skip the node and admit the waiter below it instead.
	t.Run("abandon-first", func(t *testing.T) {
		c := newTestCR(t, NewMCS(), 0, WithFairnessPeriod(0))
		c.Lock()
		below := make(chan struct{})
		go func() {
			c.Lock()
			c.Unlock()
			close(below)
		}()
		awaitPassive(t, c, 1)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- c.LockContext(ctx) }()
		awaitPassive(t, c, 2)
		c.latch.Lock()
		top := c.top
		cancel()
		if !waitUntil(time.Now().Add(30*time.Second), func() bool { return top.state.Load() == stateAbandoned }) {
			c.latch.Unlock()
			t.Fatal("passive waiter never abandoned")
		}
		c.admitLocked(false)
		c.latch.Unlock()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned waiter: LockContext = %v, want context.Canceled", err)
		}
		c.Unlock()
		runWithTimeout(t, 30*time.Second, func() { <-below })
		s := c.Stats()
		if s.Cancels != 1 || s.Abandons != 1 || s.Reprovisions != 1 || s.Acquires != 2 {
			t.Fatalf("Cancels %d, Abandons %d, Reprovisions %d, Acquires %d; want 1, 1, 1 and 2",
				s.Cancels, s.Abandons, s.Reprovisions, s.Acquires)
		}
		if p, w := c.passive.Load(), c.waiters.Load(); p != 0 || w != 0 {
			t.Fatalf("%d passive, %d admitted waiters left; want 0 and 0", p, w)
		}
	})

	// The holder lets go right at a passive waiter's deadline. Either
	// outcome is legal; a nil return must be a real acquisition, only the
	// error returns may count as Cancels, and nothing may stay behind on
	// the stack or in a waiter slot.
	t.Run("racing", func(t *testing.T) {
		c := newTestCR(t, NewMCS(), 0, WithFairnessPeriod(0))
		var won, lost uint64
		held := 0 // written only under c
		for i := 0; i < 100; i++ {
			c.Lock()
			held++
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			release := make(chan struct{})
			go func() {
				<-ctx.Done()
				held--
				c.Unlock()
				close(release)
			}()
			var err error
			runWithTimeout(t, 30*time.Second, func() { err = c.LockContext(ctx) })
			if err == nil {
				if held != 0 {
					t.Fatalf("round %d: LockContext returned nil while the lock was held", i)
				}
				c.Unlock()
				won++
			} else {
				lost++
			}
			<-release
			cancel()
		}
		s := c.Stats()
		if s.Cancels != lost || s.Acquires != 100+won {
			t.Fatalf("%d granted, %d abandoned, but Cancels %d and Acquires %d", won, lost, s.Cancels, s.Acquires)
		}
		if p, w := c.passive.Load(), c.waiters.Load(); p != 0 || w != 0 {
			t.Fatalf("%d passive, %d admitted waiters left; want 0 and 0", p, w)
		}
	})
}

// TestCRRestricts checks that the layer engages under contention and
// drains at quiescence: more goroutines than waiter slots are culled,
// every culled goroutine is admitted again, and nothing is left on the
// stack or in a slot once they are done. Zero slots is a 1-CPU host's
// cap: no entrant takes a slot by itself, and only an Unlock's admission
// puts one waiter beside the holder.
func TestCRRestricts(t *testing.T) {
	for _, slots := range []int32{0, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) { crRestricts(t, slots) })
	}
}

func crRestricts(t *testing.T, slots int32) {
	c := newTestCR(t, NewMCSCR(WithSeed(5)), slots, WithFairnessPeriod(0))
	const goroutines, iters = 8, 1000
	var maxInner atomic.Int32 // holder plus admitted waiters, seen by holders
	runWithTimeout(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					c.Lock()
					if v := c.waiters.Load() + 1; v > maxInner.Load() {
						maxInner.Store(v)
					}
					// Yield inside the critical section so the others
					// pile up behind it and the cap binds.
					runtime.Gosched()
					c.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	s := c.Stats()
	if s.Culls == 0 || s.Reprovisions == 0 {
		t.Errorf("Culls %d, Reprovisions %d: restriction never engaged", s.Culls, s.Reprovisions)
	}
	if s.Acquires != goroutines*iters {
		t.Errorf("Acquires %d, want %d", s.Acquires, goroutines*iters)
	}
	// Without fairness promotions nothing is admitted over the cap, or
	// past the one admission an Unlock makes when no slot is taken.
	if m, want := maxInner.Load(), max(slots, 1)+1; m > want {
		t.Errorf("holder plus admitted waiters reached %d with %d waiter slots; want at most %d", m, slots, want)
	}
	if p, w := c.passive.Load(), c.waiters.Load(); p != 0 || w != 0 {
		t.Errorf("%d passive, %d admitted waiters left; want 0 and 0", p, w)
	}
}

// TestCRCapIsParallelism builds a cr lock with more Ps than CPUs, the
// oversubscribed regime where the paper's collapse happens: the cap must
// be the CPU count, not GOMAXPROCS, or it admits every runnable thread.
func TestCRCapIsParallelism(t *testing.T) {
	cpus := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * cpus))
	c, ok := MustNew("mcs-stp?cr=true").(*crLock)
	if !ok {
		t.Fatal("cr=true did not build a cr lock")
	}
	if want := int32(cpus - 1); c.slots != want {
		t.Fatalf("GOMAXPROCS %d on %d CPUs: %d waiter slots, want %d", 2*cpus, cpus, c.slots, want)
	}
}

// plainMutex is a Mutex without LockContext.
type plainMutex struct{ sync.Mutex }

func TestCRNeedsContextMutex(t *testing.T) {
	if _, err := newCR(&plainMutex{}, defaultConfig()); err == nil {
		t.Fatal("cr over a lock without LockContext was accepted")
	}
	if _, err := New("mcs-stp?cr=2"); err == nil {
		t.Fatal(`"cr=2" was accepted`)
	}
	m, err := New("mcs-stp?cr=false")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*MCS); !ok {
		t.Fatalf("cr=false built a %T, want the bare *MCS", m)
	}
}
