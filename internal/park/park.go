// Package park provides the park/unpark facility (§5.1 "Parking") used by
// the waiting policies of the Malthusian locks.
//
// The semantics mirror Solaris lwp_park/lwp_unpark and the restricted-range
// semaphore described in the paper:
//
//   - Park blocks the caller until a permit is available, then consumes it.
//   - Unpark deposits at most one pending permit ("unpark before park"
//     returns immediately from the next Park).
//   - Spurious returns from Park are permitted; callers must re-check the
//     condition they wait for. ParkContext returns false when its context
//     ends first.
//
// On this substrate a "thread" is a goroutine; parking surrenders the
// goroutine to the Go scheduler rather than a CPU to the kernel, but the
// contract — and hence the lock algorithms layered above — is identical.
// The difference is the price: a park and its wake cost ~0.2 µs, less
// than one polite yield of a spin phase, so the locks' spin-then-park
// waiters park at once instead of spinning first (lock's politePause).
package park

import (
	"context"
	"sync/atomic"
)

// Parker is a one-permit binary semaphore bound to a single waiting thread.
// Many threads may call Unpark; only the owner may call Park. Construct
// with NewParker.
type Parker struct {
	// state: 0 neutral, 1 permit pending.
	state atomic.Int32
	gate  chan struct{}
}

// NewParker returns a Parker with no permit pending.
func NewParker() *Parker {
	return &Parker{gate: make(chan struct{}, 1)}
}

// Park blocks until a permit is available and consumes it.
func (p *Parker) Park() {
	for {
		if p.state.CompareAndSwap(1, 0) {
			return
		}
		<-p.gate
		// Loop: the gate token may be stale (a prior permit was consumed
		// by TryConsume before we drained the gate), which surfaces as a
		// spurious wakeup permitted by the park contract.
	}
}

// ParkContext blocks until a permit is available or ctx is done, and
// reports whether a permit was consumed. A nil ctx, or one that can never
// be cancelled (Done() == nil), degenerates to Park. It admits spurious
// returns only through the ctx path: a false return means ctx is done.
// A deadline context is the timed park. Cancellable parking is what lets
// a queued lock waiter abandon its slot (see package lock's cancellation
// protocol).
func (p *Parker) ParkContext(ctx context.Context) bool {
	if p.state.CompareAndSwap(1, 0) {
		return true
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		p.Park()
		return true
	}
	for {
		select {
		case <-p.gate:
			if p.state.CompareAndSwap(1, 0) {
				return true
			}
			// Stale gate token; keep waiting.
		case <-done:
			// One more chance: a permit may have raced with cancellation.
			return p.state.CompareAndSwap(1, 0)
		}
	}
}

// Unpark makes one permit available, waking the owner if it is parked.
// Redundant unparks collapse into a single pending permit, exactly like the
// optimized implementations described in §5.1.
func (p *Parker) Unpark() {
	if p.state.Swap(1) == 1 {
		return // permit already pending; nothing to signal
	}
	select {
	case p.gate <- struct{}{}:
	default:
		// A wakeup token is already queued; the owner will observe
		// state==1 when it drains the gate.
	}
}

// TryConsume consumes a pending permit without blocking and reports whether
// one was pending. Used by a spinning waiter to poll for an unpark.
func (p *Parker) TryConsume() bool {
	return p.state.CompareAndSwap(1, 0)
}
