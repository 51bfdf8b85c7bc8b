// Package condvar implements a condition variable whose wait-queue
// admission order is a policy: strict FIFO (the conventional, "fair"
// discipline) or mostly-LIFO, which provides concurrency restriction.
//
// The paper (§6.10, §6.11) applies CR to condition variables by biasing
// where the wait operator enqueues the caller: "With probability 999/1000
// we prepend to the head, and 1 out of 1000 wait operations will append at
// the tail, providing eventual long-term fairness." Signal always dequeues
// from the head, so prepend-biased admission wakes the most recently
// arrived — warmest, most-likely-still-spinning — waiter, while the rare
// append bounds starvation of the eldest.
//
// The condition variable works with any sync.Locker, including the locks
// in package lock and sync.Mutex itself.
package condvar

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/park"
	"repro/lock"
)

// AppendProbability values for the standard policies.
const (
	// FIFO appends every waiter at the tail: strict arrival order.
	FIFO = 1.0
	// MostlyLIFO appends 1 in 1000 waiters, prepending the rest: the
	// paper's CR policy.
	MostlyLIFO = 1.0 / 1000
	// LIFO always prepends; maximal restriction, no long-term fairness
	// (the discipline of Facebook folly's LifoSem, discussed in §6.11).
	LIFO = 0.0
)

type waiter struct {
	parker *park.Parker
	//lockcheck:guardedby condvar.Cond.mu
	next *waiter
	//lockcheck:guardedby condvar.Cond.mu
	prev *waiter
	// signaled is guarded by the owning Cond's internal lock.
	//
	//lockcheck:guardedby condvar.Cond.mu
	signaled bool
}

// Cond is a condition variable with a policy-controlled wait queue.
type Cond struct {
	// L is held by callers of Wait, as with sync.Cond.
	L sync.Locker

	// mu guards the wait list and trial. The zero-value TAS carries no
	// stats reference, so this internal latch is instrumentation-free:
	// enqueue/dequeue pay no striped-counter updates on the signal path.
	mu lock.TAS
	//lockcheck:guardedby mu
	head *waiter
	//lockcheck:guardedby mu
	tail *waiter
	//lockcheck:guardedby mu
	size       int
	appendProb float64
	//lockcheck:guardedby mu
	trial *core.Trial
}

// New returns a condition variable using the given lock and append
// probability (1 = FIFO, 0 = LIFO, 1/1000 = the paper's mostly-LIFO).
func New(l sync.Locker, appendProb float64, seed uint64) *Cond {
	return &Cond{L: l, appendProb: appendProb, trial: core.NewTrial(0, seed)}
}

// NewFIFO returns a strict-FIFO condition variable, the discipline of the
// paper's baseline runs ("unless otherwise stated, all condition variables
// used in this paper provide strict FIFO ordering").
func NewFIFO(l sync.Locker) *Cond { return New(l, FIFO, 0) }

// NewMostlyLIFO returns a CR condition variable with the paper's
// 1-in-1000 append policy.
func NewMostlyLIFO(l sync.Locker) *Cond { return New(l, MostlyLIFO, 0) }

// Wait atomically releases c.L and suspends the caller until Signal or
// Broadcast selects it, then reacquires c.L before returning. As with
// sync.Cond, callers must re-check their predicate in a loop.
//
//lockcheck:holds c.L
func (c *Cond) Wait() {
	w := &waiter{parker: park.NewParker()}
	c.enqueue(w)
	c.L.Unlock()
	for {
		w.parker.Park()
		c.mu.Lock()
		done := w.signaled
		c.mu.Unlock()
		if done {
			break
		}
		// Spurious permit; keep waiting.
	}
	c.L.Lock()
}

// WaitContext is Wait with cancellation: it returns nil when the caller
// was signaled and ctx.Err() when ctx ended first, unlinking the waiter
// so a later Signal is not consumed by a departed goroutine. As with
// Wait, c.L is reacquired unconditionally before returning — the caller
// still holds the lock on the error path and must release it. A signal
// that races the cancellation wins: WaitContext returns nil and the
// signal is consumed. An uncancellable ctx degenerates to Wait; a
// deadline context is the timed wait.
//
//lockcheck:holds c.L
func (c *Cond) WaitContext(ctx context.Context) error {
	if ctx.Done() == nil {
		c.Wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		// Fail fast without enqueuing or cycling c.L, matching the
		// ContextMutex contract (the caller keeps holding c.L).
		return err
	}
	w := &waiter{parker: park.NewParker()}
	c.enqueue(w)
	c.L.Unlock()
	var err error
	for {
		consumed := w.parker.ParkContext(ctx)
		c.mu.Lock()
		if w.signaled {
			c.mu.Unlock()
			break
		}
		if !consumed && ctx.Err() != nil {
			// Cancelled, and no signal raced in (we hold mu, so signaled
			// is authoritative): withdraw from the queue.
			c.unlink(w)
			c.mu.Unlock()
			err = ctx.Err()
			break
		}
		c.mu.Unlock()
		// Spurious permit; keep waiting.
	}
	c.L.Lock()
	return err
}

// Signal wakes the waiter at the head of the queue, if any. It may be
// called with or without holding c.L. Unlike a lock's or semaphore's
// grant it does not yield to the waiter it wakes: that waiter's next act
// is c.L.Lock(), which the signaller usually holds (BenchmarkProdCons:
// 0.5 µs per message as is, 1.2–2.5 µs with a yield).
func (c *Cond) Signal() {
	c.mu.Lock()
	w := c.popHead()
	if w != nil {
		w.signaled = true
	}
	c.mu.Unlock()
	if w != nil {
		w.parker.Unpark()
	}
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	head := c.head
	for w := head; w != nil; w = w.next {
		w.signaled = true
	}
	c.head, c.tail, c.size = nil, nil, 0
	c.mu.Unlock()
	// The list was detached above while mu was held; no enqueue/unlink
	// can reach these nodes any more, so the lock-free walk is private.
	//lockcheck:ignore detached under mu; the walked list is no longer reachable from the Cond
	for w := head; w != nil; w = w.next {
		w.parker.Unpark()
	}
}

// Len reports the current number of waiters (racy; for monitoring).
func (c *Cond) Len() int {
	c.mu.Lock()
	n := c.size
	c.mu.Unlock()
	return n
}

func (c *Cond) enqueue(w *waiter) {
	c.mu.Lock()
	if c.head == nil {
		c.head, c.tail = w, w
	} else if c.trial.Prob(c.appendProb) {
		// Append at the tail: FIFO-style admission for this waiter.
		w.prev = c.tail
		c.tail.next = w
		c.tail = w
	} else {
		// Prepend at the head: LIFO-style admission (CR).
		w.next = c.head
		c.head.prev = w
		c.head = w
	}
	c.size++
	c.mu.Unlock()
}

//lockcheck:holds c.mu
func (c *Cond) popHead() *waiter {
	w := c.head
	if w == nil {
		return nil
	}
	c.head = w.next
	if c.head == nil {
		c.tail = nil
	} else {
		c.head.prev = nil
	}
	w.next, w.prev = nil, nil
	c.size--
	return w
}

// unlink removes w from the queue; w must be on it.
//
//lockcheck:holds c.mu
func (c *Cond) unlink(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		c.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		c.tail = w.prev
	}
	w.next, w.prev = nil, nil
	c.size--
}
