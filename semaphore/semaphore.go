// Package semaphore implements a counting semaphore whose waiter admission
// order is a policy: strict FIFO, mostly-LIFO (concurrency restriction),
// or pure LIFO.
//
// §6.11 of the paper interposes on POSIX sem_wait/sem_post with "an
// explicit list of waiting threads ... equipped to allow the
// append-prepend probability P to be controlled", and contrasts the result
// with folly's LifoSem: "LifoSem uses an always-prepend policy for strict
// LIFO admission, whereas our approach allows mixed append-prepend
// ensuring long-term fairness, while still providing most of the
// performance benefits of LIFO admission."
//
// Release uses direct handoff: if a waiter exists the permit is conveyed
// to it without ever becoming visible in the count, so a barging Acquire
// cannot overtake a waiter that was just granted.
//
// Acquisition is context-aware, with the same contract as
// lock.ContextMutex: AcquireContext abandons the wait when ctx is done,
// an uncancellable context routes to the plain path, an already-done
// context fails fast, and a grant that races the cancellation wins — the
// waiter keeps the conveyed permit and AcquireContext returns nil, so the
// permit is never leaked and never re-posted behind a live waiter's back.
package semaphore

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/park"
	"repro/lock"
)

// Append probabilities for the standard policies (see package condvar).
const (
	FIFO       = 1.0
	MostlyLIFO = 1.0 / 1000
	LIFO       = 0.0
)

type waiter struct {
	parker *park.Parker
	//lockcheck:guardedby semaphore.Semaphore.mu
	next *waiter
	//lockcheck:guardedby semaphore.Semaphore.mu
	prev *waiter
	// granted is guarded by the owning Semaphore's internal lock.
	//
	//lockcheck:guardedby semaphore.Semaphore.mu
	granted bool
}

// Semaphore is a counting semaphore with policy-controlled admission.
type Semaphore struct {
	// mu guards the count and waiter list. The zero-value TAS carries no
	// stats reference, so the acquire/release paths pay no striped-counter
	// updates for the internal latch.
	mu lock.TAS
	//lockcheck:guardedby mu
	count int
	//lockcheck:guardedby mu
	head *waiter
	//lockcheck:guardedby mu
	tail *waiter
	//lockcheck:guardedby mu
	size       int
	appendProb float64
	//lockcheck:guardedby mu
	trial *core.Trial
	stats *core.Stats
}

// New returns a semaphore holding n initial permits with the given append
// probability.
func New(n int, appendProb float64, seed uint64) *Semaphore {
	if n < 0 {
		panic("semaphore: negative initial count")
	}
	return &Semaphore{
		count:      n,
		appendProb: appendProb,
		trial:      core.NewTrial(0, seed),
		stats:      core.NewStats(),
	}
}

// NewFIFO returns a strict-FIFO semaphore with n permits.
func NewFIFO(n int) *Semaphore { return New(n, FIFO, 0) }

// NewMostlyLIFO returns a CR semaphore with n permits and the paper's
// 1-in-1000 append policy.
func NewMostlyLIFO(n int) *Semaphore { return New(n, MostlyLIFO, 0) }

// Acquire obtains one permit, blocking until available.
//
//lockcheck:acquires s
func (s *Semaphore) Acquire() {
	s.acquire(nil) // a nil ctx cannot fail
}

// AcquireContext obtains one permit, abandoning the wait when ctx is
// cancelled or its deadline passes. It returns nil once a permit is held
// and ctx.Err() after an abandoned attempt. A wait bounded by a duration
// is AcquireContext under context.WithTimeout.
//
// The grant-vs-abandon race is arbitrated under the internal latch, the
// same authority Release grants under: whichever of {grant, abandon}
// commits first wins, and a waiter that finds itself granted while
// cancelling keeps the permit and returns nil (grant-wins, exactly as
// lock.ContextMutex). The conveyed permit therefore can never leak: it is
// either consumed by the successful return or still queued on a live
// waiter. Exactly one Cancels event is counted per error return.
//
//lockcheck:acquires s
func (s *Semaphore) AcquireContext(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		s.acquire(nil)
		return nil
	}
	if err := ctx.Err(); err != nil {
		// Fail-fast: an already-done context never joins the queue and
		// never consumes a permit.
		s.stats.Inc(core.EvCancels)
		return err
	}
	return s.acquire(ctx)
}

// acquire is the shared acquisition body; a nil ctx waits indefinitely
// and cannot fail, a non-nil ctx must be cancellable.
//
//lockcheck:acquires s
func (s *Semaphore) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.count > 0 && s.head == nil {
		s.count--
		s.mu.Unlock()
		s.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	w := &waiter{parker: park.NewParker()}
	s.enqueue(w)
	s.mu.Unlock()
	for {
		ok := w.parker.ParkContext(ctx)
		s.mu.Lock()
		if w.granted {
			// Grant-wins: even when ctx raced us here, the permit was
			// already conveyed to this waiter and we keep it.
			s.mu.Unlock()
			s.stats.Inc3(core.EvParks, core.EvSlowPath, core.EvAcquires)
			return nil
		}
		if !ok {
			// ctx is done and — under the same latch Release would need to
			// grant us — we are not granted: the abandon wins. Unlink so no
			// future Release can convey a permit to a departed waiter.
			s.unlink(w)
			s.mu.Unlock()
			s.stats.Inc2(core.EvParks, core.EvCancels)
			return ctx.Err()
		}
		s.mu.Unlock()
		// Spurious wakeup; park again.
	}
}

// TryAcquire obtains a permit only if one is immediately available and no
// waiter is queued ahead.
//
//lockcheck:acquires s
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	ok := s.count > 0 && s.head == nil
	if ok {
		s.count--
	}
	s.mu.Unlock()
	if ok {
		s.stats.Inc2(core.EvFastPath, core.EvAcquires)
	}
	return ok
}

// Release returns one permit. If waiters exist, the permit is handed
// directly to the one at the head of the queue, and so is the caller's
// P, as in package lock's directed handoff: the woken waiter would hold
// the permit in runnext without running (BenchmarkPermitHandoff, one
// permit: 0.5–1.0 µs per cycle without the yield, 0.2–0.3 with it).
func (s *Semaphore) Release() {
	s.mu.Lock()
	w := s.popHead()
	if w != nil {
		w.granted = true
	} else {
		s.count++
	}
	s.mu.Unlock()
	if w != nil {
		w.parker.Unpark()
		s.stats.Inc2(core.EvHandoffs, core.EvUnparks)
		runtime.Gosched()
	}
}

// NoStats disables event-counter maintenance — the analogue of
// lock.WithStats(false): the stats reference goes nil and every counter
// site reduces to one predicted branch. Call it before the semaphore is
// shared; it returns s for construction chaining
// (semaphore.NewFIFO(8).NoStats()). Stats then reports zeros.
func (s *Semaphore) NoStats() *Semaphore {
	s.stats = nil
	return s
}

// Stats returns a snapshot of the semaphore's event counters: Acquires
// (fast path = immediate permits, slow path = queued waits), Handoffs and
// Unparks from Release conveyances, Parks from queued waits, and Cancels —
// exactly one per AcquireContext error return.
func (s *Semaphore) Stats() core.Snapshot { return s.stats.Read() }

// Count reports the number of unclaimed permits (racy; for monitoring).
func (s *Semaphore) Count() int {
	s.mu.Lock()
	n := s.count
	s.mu.Unlock()
	return n
}

// Waiters reports the current queue length (racy; for monitoring).
func (s *Semaphore) Waiters() int {
	s.mu.Lock()
	n := s.size
	s.mu.Unlock()
	return n
}

//lockcheck:holds s.mu
func (s *Semaphore) enqueue(w *waiter) {
	if s.head == nil {
		s.head, s.tail = w, w
	} else if s.trial.Prob(s.appendProb) {
		w.prev = s.tail
		s.tail.next = w
		s.tail = w
	} else {
		w.next = s.head
		s.head.prev = w
		s.head = w
	}
	s.size++
}

//lockcheck:holds s.mu
func (s *Semaphore) popHead() *waiter {
	w := s.head
	if w == nil {
		return nil
	}
	s.head = w.next
	if s.head == nil {
		s.tail = nil
	} else {
		s.head.prev = nil
	}
	w.next, w.prev = nil, nil
	s.size--
	return w
}

//lockcheck:holds s.mu
func (s *Semaphore) unlink(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		s.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		s.tail = w.prev
	}
	w.next, w.prev = nil, nil
	s.size--
}
