package lock

import (
	"context"
	"time"
)

// ContextMutex is the context-aware acquisition contract. Every lock in
// this package satisfies it, so any lock built by New can serve request
// paths that carry deadlines or cancellation.
//
// Semantics shared by all implementations:
//
//   - A context that is already done fails fast with ctx.Err() without
//     joining any waiter structure. Err() is the one thing LockContext
//     asks of ctx before it has to wait.
//   - An uncontended acquisition takes the lock's ordinary fast path and
//     never calls ctx.Done(): a context that makes its channel lazily, or
//     has to arm a timer to make one, pays nothing for a lock it did not
//     wait for.
//   - Done() is asked for where the acquisition is about to wait, and a
//     context that can never be cancelled (Done() == nil, e.g.
//     context.Background()) waits exactly as Lock does from there: the
//     cancellation machinery is bypassed entirely.
//   - Grant-wins: when a handoff races the cancellation, the acquisition
//     succeeds and LockContext returns nil even though ctx is done. The
//     caller that uses `if err := m.LockContext(ctx); err != nil { return
//     err }; defer m.Unlock()` is correct under either outcome.
//   - Exactly one Cancels event is counted per error return (Stats).
//
// What cancellation perturbs, per lock, is documented in DESIGN.md: FIFO
// locks (MCS, CLH) keep arrival order among surviving waiters but a
// cancelled waiter's successors move up; a Ticket lock serves cancellable
// acquirers by competitive succession instead of a ticket; CR locks may
// spend a fairness promotion on a waiter that abandons in the handoff
// window (the unlock path then falls back to a live successor).
type ContextMutex interface {
	Mutex
	// LockContext acquires the lock, abandoning the attempt when ctx is
	// cancelled or its deadline passes. It returns nil once the lock is
	// held and ctx.Err() after a cancelled attempt.
	LockContext(ctx context.Context) error
	// TryLockFor acquires the lock within d and reports whether it did.
	// d <= 0 degenerates to TryLock.
	TryLockFor(d time.Duration) bool
}

// lockContexter is the implementation subset tryLockFor needs; taking the
// narrow interface keeps the helper usable from every lock's TryLockFor
// method without import cycles or generics.
type lockContexter interface {
	TryLock() bool
	LockContext(ctx context.Context) error
}

// tryLockFor is the shared TryLockFor implementation: an immediate
// TryLock, then a deadline-bounded LockContext.
//
//lockcheck:acquires m
func tryLockFor(m lockContexter, d time.Duration) bool {
	if m.TryLock() {
		return true
	}
	if d <= 0 {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.LockContext(ctx) == nil
}
