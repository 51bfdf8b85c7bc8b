package lock

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/park"
	"repro/internal/xrand"
)

// politeness: how many poll iterations between yields to the scheduler.
// The yield is the goroutine-world analogue of the paper's RD CCR,G0 /
// PAUSE polite-spin instructions — it cedes the pipeline (here: the P) to
// siblings. It is also required for progress when GOMAXPROCS is small.
const politeEvery = 64

// politePause burns one polite poll iteration: i is the running iteration
// counter. 63 iterations in 64 cost a load and a branch; the 64th is a
// trip through the global run queue, 0.09 µs alone and 0.8–3.4 µs behind
// eight runnable peers, against ~0.2 µs to park and be woken — the right
// trade only where spinning is the whole policy (tas, ticket, LOITER's
// arrival phase, the unlock paths' link waits). A queued waiter therefore
// parks at once: a spin phase would cost more than the park it postponed.
func politePause(i int) {
	if i%politeEvery == politeEvery-1 {
		runtime.Gosched()
	}
}

// waiter states for queue-based locks. The grant protocol is:
//
//	granter:  tryGrant: CAS(waiting→granted) or CAS(parked→granted)
//	          (unparking in the latter case); an abandoned cell is skipped.
//	          An unlock that had to unpark ends in handoffDone's yield.
//	waiter:   CAS(waiting→parked) at once and park until granted;
//	          on context cancellation, CAS(waiting|parked→abandoned).
//
// Exactly one of the racing transitions wins: a waiter whose abandon CAS
// fails has been granted (and owns the lock); a granter whose grant CAS
// loop lands on abandoned must excise the node and pick another successor.
// Abandoned is terminal — the cancelled waiter never touches the cell
// again, so whichever path observes it owns the node's reclamation.
const (
	stateWaiting uint32 = iota
	stateGranted
	stateParked
	stateAbandoned
)

// ctxCheckEvery is how many poll iterations separate context checks in
// cancellable spin loops: frequent enough for sub-millisecond reaction,
// sparse enough that the Done-channel poll stays off the common path.
const ctxCheckEvery = 64

// waitCell is the per-waiter flag + parker shared by the queue-based
// locks. It embeds everything a granter touches, so grant/await logic
// lives in one place.
//
// Lifecycle invariant: pooled nodes embedding a waitCell are returned to
// their pool already reset (state == stateWaiting, links cleared), so the
// allocation fast path issues no stores at all — a node fresh from
// sync.Pool's New is zeroed, and zero is the reset state. The parker is
// allocated lazily on the first actual park and survives pool recycling.
type waitCell struct {
	state  atomic.Uint32
	parker *park.Parker
}

// grant marks the cell granted and wakes its waiter if parked. It returns
// true if the waiter had to be unparked (a voluntary-context-switch wake).
// Only CLH may use the unconditional swap: a CLH waiter abandons its own
// node, never its predecessor's, so the cell a CLH unlock grants cannot be
// abandoned. Every other granter must use tryGrant.
//
//lockcheck:cs
func (w *waitCell) grant() bool {
	if w.state.Swap(stateGranted) == stateParked {
		w.parker.Unpark()
		return true
	}
	return false
}

// tryGrant attempts to pass ownership to the cell's waiter. ok reports
// whether the waiter now owns the lock; unparked reports whether it had
// parked and was woken. ok == false means the waiter abandoned the
// acquisition: the caller must excise the node and pick another successor
// (the node is the caller's to reclaim).
//
//lockcheck:cs
func (w *waitCell) tryGrant() (ok, unparked bool) {
	for {
		switch s := w.state.Load(); s {
		case stateWaiting:
			if w.state.CompareAndSwap(stateWaiting, stateGranted) {
				return true, false
			}
		case stateParked:
			if w.state.CompareAndSwap(stateParked, stateGranted) {
				w.parker.Unpark()
				return true, true
			}
		case stateAbandoned:
			return false, false
		default:
			panic("lock: grant of an already-granted waiter")
		}
	}
}

// abandon moves the cell to stateAbandoned on behalf of a cancelled
// waiter, waking a parked inheritor (CLH: the successor parks on its
// predecessor's cell, so the abandoning owner must unpark it). It reports
// whether the abandon won; false means the cell was granted first and the
// caller owns the lock. Used for cells other goroutines wait on; a waiter
// abandoning the cell it itself parks on uses await's inline CASes.
func (w *waitCell) abandon() bool {
	for {
		switch s := w.state.Load(); s {
		case stateWaiting:
			if w.state.CompareAndSwap(stateWaiting, stateAbandoned) {
				return true
			}
		case stateParked:
			if w.state.CompareAndSwap(stateParked, stateAbandoned) {
				w.parker.Unpark()
				return true
			}
		case stateGranted:
			return false
		default:
			panic("lock: abandon of an already-abandoned waiter")
		}
	}
}

// await parks at once until the cell is granted. This is where a queued
// acquisition first asks for ctx.Done() — its caller has enqueued and is
// about to wait — and a nil ctx or a nil channel means the wait cannot be
// cancelled (a nil channel never fires below). On err == nil the waiter
// was granted and owns the lock. On err != nil the cell has been
// atomically moved to stateAbandoned: the waiter must NOT free the node —
// ownership of it passes to whichever unlock path excises it — and must
// not touch the cell again. parked reports whether the waiter parked.
//
// Grant-wins: when a grant races the cancellation, the CAS to abandoned
// fails, the waiter keeps the lock, and await returns nil even though
// ctx is done. Callers surface that as a successful acquisition — the
// lock must then be unlocked as usual.
func (w *waitCell) await(ctx context.Context) (parked bool, err error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// Advertise that we are parking. The parker must exist before the CAS
	// publishes stateParked — the granter reads w.parker only after
	// observing stateParked, so the CAS's release ordering makes the plain
	// parker store visible to it. If the CAS fails the grant already
	// happened.
	if w.parker == nil {
		w.parker = park.NewParker()
	}
	if !w.state.CompareAndSwap(stateWaiting, stateParked) {
		return false, nil
	}
	for {
		w.parker.ParkContext(ctx)
		if w.state.Load() == stateGranted {
			return true, nil
		}
		select {
		case <-done:
			if w.state.CompareAndSwap(stateParked, stateAbandoned) {
				// Our own parker may hold a stale permit; it survives pool
				// recycling as a spurious wakeup, which the park contract
				// already admits.
				return true, ctx.Err()
			}
			return true, nil // grant won the race
		default:
			// Spurious wakeup; park again.
		}
	}
}

// Shared stats accounting for the queue locks, so each event pattern has
// a single point of change.

// handoffDone is the last act of an unlock that granted the lock: it
// records the handoff and, when the successor had parked (a
// voluntary-context-switch wake), hands it this P as well.
func handoffDone(s *core.Stats, unparked bool) {
	if unparked {
		s.Inc2(core.EvUnparks, core.EvHandoffs)
		yieldToWoken()
	} else {
		s.Inc(core.EvHandoffs)
	}
}

// yieldToWoken makes a handoff to a parked waiter a directed one. The
// goroutine the caller just unparked — the new owner, or LOITER's standby
// — sits in this P's runnext slot and would stay there, owning the lock
// without running, until the caller next blocks: "granted to a thread
// that is not running", with every other waiter behind it. Yielding
// dispatches it at once, as sync.Mutex's starvation-mode handoff does.
// Call it once per unlock, after the unlock's own bookkeeping, and never
// for a successor granted before it parked — that one is still running.
func yieldToWoken() { runtime.Gosched() }

// slowAcquireStats records a queued acquisition.
func slowAcquireStats(s *core.Stats, parked bool) {
	if parked {
		s.Inc3(core.EvParks, core.EvSlowPath, core.EvAcquires)
	} else {
		s.Inc2(core.EvSlowPath, core.EvAcquires)
	}
}

// cancelStats records a cancelled acquisition attempt.
func cancelStats(s *core.Stats, parked bool) {
	if parked {
		s.Inc2(core.EvParks, core.EvCancels)
	} else {
		s.Inc(core.EvCancels)
	}
}

// backoff implements randomized exponential backoff for global-spinning
// locks (TAS/TTAS, ticket). Not safe for concurrent use; each acquiring
// call owns one.
type backoff struct {
	rng   xrand.State
	limit int
}

func newBackoff(seed uint64) backoff {
	b := backoff{limit: 4}
	b.rng.Seed(seed)
	return b
}

const maxBackoff = 1024

// pause waits a randomized interval and grows the bound.
func (b *backoff) pause() {
	n := 1 + int(b.rng.Uint64n(uint64(b.limit)))
	for i := 0; i < n; i++ {
		politePause(i)
	}
	if b.limit < maxBackoff {
		b.limit *= 2
	}
	runtime.Gosched()
}

// seedSource hands out distinct seeds to per-call backoff states.
var seedSource atomic.Uint64

func nextSeed() uint64 {
	return seedSource.Add(0x9e3779b97f4a7c15)
}
