package lock

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/park"
)

// DefaultPatience is the number of failed acquisition attempts after which
// the LOITER standby thread declares itself impatient and requests direct
// handoff (Appendix A.1: "we impose long-term fairness by detecting that
// the standby thread has waited too long").
const DefaultPatience = 64

// DefaultArrivalSpins is the bounded fast-path arrival spin: how many
// acquisition attempts (with randomized backoff between them) an arriving
// thread makes on the outer lock before reverting to the slow path.
const DefaultArrivalSpins = 32

// WithPatience sets the standby impatience threshold in failed attempts.
func WithPatience(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.patience = n
	}
}

// WithArrivalSpins sets the bounded arrival-phase attempt count.
func WithArrivalSpins(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.arrivalSpins = n
	}
}

// Standby states. The three-way CAS race between the unlock path's direct
// handoff (waiting→granted) and the standby's cancellation
// (waiting→cancelled) is what makes LOITER cancellation safe: exactly one
// wins, so ownership is either conveyed to a standby that will take it, or
// the unlock path observes the resignation and releases the outer word
// normally.
const (
	sbWaiting uint32 = iota
	sbGranted
	sbCancelled
)

// loiterStandby is the record the standby thread publishes so the unlock
// path can wake it (heir presumptive) or grant it the lock directly.
type loiterStandby struct {
	parker    *park.Parker
	state     atomic.Uint32 // sbWaiting / sbGranted / sbCancelled
	impatient atomic.Bool
	// parked is set while the standby is in its parker, not polling.
	// Advisory: a stale read costs or saves wake one yield.
	parked atomic.Bool
}

// wake unparks the standby and, if that took it off its parker, hands it
// this P (see yieldToWoken). The caller is finished with the lock.
func (sb *loiterStandby) wake() {
	parked := sb.parked.Load()
	sb.parker.Unpark()
	if parked {
		yieldToWoken()
	}
}

// LOITER ("Locking: Outer-Inner with ThRottling", Appendix A.1) is a
// composite lock: an outer test-and-set lock acquired by a bounded barging
// fast path, and an inner MCS lock forming the slow path. The single
// thread holding the inner lock — the standby — contends for the outer
// lock on behalf of the slow path; everything queued behind it on the
// inner lock is the passive set.
//
// The ACS is the owner, the circulating threads, and the arriving
// fast-path spinners; the standby is "on the cusp", transitional between
// the sets. The composite retains competitive succession (low handover
// latency, preemption tolerance) for the common path while the inner lock
// throttles the flow of threads from the PS into the ACS. An impatient
// standby — one that has failed too many acquisition attempts — receives
// the lock by direct handoff at the next unlock, bounding starvation.
//
// This is the paper's 3-stage waiting policy: spin globally; then enqueue
// and spin locally; then park. Here the middle stage is WaitSpin's alone:
// a spin-then-park waiter parks as soon as it has enqueued.
type LOITER struct {
	// outer is the barging-spun lock word; it owns its cache line so the
	// fast-path CAS storm does not invalidate the standby pointer or the
	// holder-only fields.
	//
	//lockcheck:lockword
	outer atomic.Uint32 // 0 free, 1 held
	_     [pad.CacheLineSize - 4]byte

	// standby is written on every slow-path entry/exit and read on every
	// unlock; it gets its own line too.
	standby atomic.Pointer[loiterStandby]
	_       [pad.CacheLineSize - 8]byte

	// inner is the slow-path queue. The standby acquires outer while
	// holding it, the one deliberate lock nesting in this package:
	//
	//lockcheck:lockorder lock.LOITER.inner<lock.LOITER.outer
	inner *MCS
	// slowOwner records whether the current owner came via the slow path
	// and therefore also holds the inner lock. Lock-protected.
	//
	//lockcheck:guardedby outer
	slowOwner bool
	cfg       config
	stats     *core.Stats
}

func init() {
	Register(Registration{
		Name:    "loiter",
		Summary: "LOITER composite lock (App. A.1): outer TAS fast path, inner MCS passive set, standby bridge",
		Build:   func(opts ...Option) Mutex { return NewLOITER(opts...) },
	})
}

// NewLOITER returns an unlocked LOITER lock. The waiting-policy option
// applies to both the inner MCS queue and the standby's wait.
func NewLOITER(opts ...Option) *LOITER {
	cfg := buildConfig(opts)
	return &LOITER{
		inner: NewMCS(WithWaitPolicy(cfg.wait), WithStats(!cfg.noStats)),
		cfg:   cfg,
		stats: cfg.newStats(),
	}
}

// Lock acquires the lock: bounded barging on the outer lock first, then
// the inner-lock slow path.
//
//lockcheck:acquires l
func (l *LOITER) Lock() {
	if l.outer.CompareAndSwap(0, 1) {
		l.slowOwner = false
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return
	}
	l.lockSlow(nil)
}

// LockContext is Lock with cancellation at every stage: the barging
// arrival phase polls ctx between attempts, the inner-queue wait uses the
// MCS cancellation protocol, and a standby whose ctx expires resigns —
// atomically, against the unlock path's direct handoff — and releases the
// inner lock so the next slow-path waiter is elevated in its place.
//
//lockcheck:acquires l
func (l *LOITER) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	if l.outer.CompareAndSwap(0, 1) {
		l.slowOwner = false
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	return l.lockSlow(ctx)
}

// TryLockFor is TryLock with a patience bound, built on LockContext.
func (l *LOITER) TryLockFor(d time.Duration) bool { return tryLockFor(l, d) }

// lockSlow is the contended path: arrival-phase barging, then the inner
// queue, then standby duty. A nil ctx waits indefinitely, and so does one
// that can never be cancelled: the caller is about to wait, so this is
// where ctx.Done() is first asked for. On success the caller owns the
// outer word and, if it came through standby duty, the inner lock too —
// released at Unlock.
//
//lockcheck:acquires l
func (l *LOITER) lockSlow(ctx context.Context) error {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	// Fast path: arrival phase with bounded global spinning and
	// randomized backoff.
	b := newBackoff(nextSeed())
	for a := 1; a < l.cfg.arrivalSpins; a++ {
		for i := 0; l.outer.Load() != 0 && i < maxBackoff; i++ {
			politePause(i)
		}
		if l.outer.CompareAndSwap(0, 1) {
			l.slowOwner = false
			l.stats.Inc2(core.EvFastPath, core.EvAcquires)
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				l.stats.Inc(core.EvCancels)
				return err
			}
		}
		b.pause()
	}

	// Slow path: acquire the inner lock and become the standby thread.
	if ctx == nil {
		l.inner.Lock()
	} else if err := l.inner.LockContext(ctx); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	sb := &loiterStandby{parker: park.NewParker()}
	l.standby.Store(sb)
	attempts := 0
	for {
		if sb.state.Load() == sbGranted {
			// Direct handoff: the outer lock was never released; we own it.
			break
		}
		if l.outer.CompareAndSwap(0, 1) {
			break
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				if sb.state.CompareAndSwap(sbWaiting, sbCancelled) {
					// Resign standby duty: deregister, then elevate the
					// next slow-path waiter by releasing the inner lock.
					l.standby.Store(nil)
					l.inner.Unlock()
					l.stats.Inc2(core.EvCancels, core.EvAbandons)
					return err
				}
				// The direct handoff won the race: ownership already
				// conveyed; take the lock (grant-wins).
				continue
			}
		}
		attempts++
		if attempts > l.cfg.patience {
			sb.impatient.Store(true)
		}
		l.standbyWait(sb, ctx)
	}
	l.standby.Store(nil)
	// On the sbGranted break the outer word was never released — ownership
	// conveyed by direct handoff, invisible to the lockset join.
	//lockcheck:ignore direct handoff conveys l.outer without a CAS on this branch
	l.slowOwner = true
	l.stats.Inc2(core.EvSlowPath, core.EvAcquires)
	return nil
}

// standbyWait waits for the outer lock to change state: under WaitSpin a
// polite poll, otherwise parking at once until the unlock path's
// heir-presumptive unpark — or ctx cancellation, handled by the caller.
// The poll returns on an unpark too, so impatience counts the same
// wake-ups under either policy.
func (l *LOITER) standbyWait(sb *loiterStandby, ctx context.Context) {
	if l.cfg.wait == WaitSpin {
		var done <-chan struct{} // nil never fires below
		if ctx != nil {
			done = ctx.Done()
		}
		for i := 0; ; i++ {
			if sb.state.Load() != sbWaiting || l.outer.Load() == 0 {
				return
			}
			if sb.parker.TryConsume() {
				return // an unlock woke us
			}
			if i%ctxCheckEvery == ctxCheckEvery-1 {
				select {
				case <-done:
					return
				default:
				}
			}
			politePause(i)
		}
	}
	l.stats.Inc(core.EvParks)
	sb.parked.Store(true)
	sb.parker.ParkContext(ctx)
	sb.parked.Store(false)
}

// TryLock acquires the lock if the outer word is free.
//
//lockcheck:acquires l
func (l *LOITER) TryLock() bool {
	if l.outer.CompareAndSwap(0, 1) {
		l.slowOwner = false
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return true
	}
	return false
}

// Unlock releases the lock. A patient standby is woken as heir presumptive
// (competitive succession); an impatient one receives the lock by direct
// handoff without it ever becoming free — unless its cancellation won the
// state race, in which case the release proceeds normally.
//
//lockcheck:cs
//lockcheck:holds l.outer
//lockcheck:releases l
func (l *LOITER) Unlock() {
	if l.outer.Load() != 1 {
		panic("lock: LOITER.Unlock of unlocked mutex")
	}
	wasSlow := l.slowOwner
	sb := l.standby.Load()
	if sb != nil && sb.impatient.Load() &&
		sb.state.CompareAndSwap(sbWaiting, sbGranted) {
		// Anti-starvation direct handoff: ownership conveys; the outer
		// word stays 1.
		l.stats.Inc3(core.EvPromotions, core.EvHandoffs, core.EvUnparks)
		sb.wake()
		return
	}
	l.outer.Store(0)
	// Re-read the standby after publishing the release: a slow-path thread
	// may have registered itself between the pre-release read above and the
	// store, and with no wakeup it would park with nobody left to unpark it
	// (a lost-wakeup strand at quiescence). Unpark-before-park is safe —
	// the parker holds the permit — and a standby that misses both reads
	// necessarily observes outer == 0 before parking. A just-cancelled
	// standby may be unparked redundantly; the stale permit is harmless.
	if sb = l.standby.Load(); sb != nil {
		// Wake the heir presumptive so it can re-contend. It holds the
		// inner lock, so wasSlow is false: this is the unlock's last act.
		l.stats.Inc(core.EvUnparks)
		sb.wake()
		return
	}
	if wasSlow {
		// We came via the slow path and still hold the inner lock;
		// releasing it elevates the next slow waiter to standby.
		//lockcheck:ignore slowOwner==true implies the inner lock is held, a data-dependent fact the lockset cannot carry
		l.inner.Unlock()
	}
}

// Stats returns a snapshot of the lock's event counters. The inner MCS
// queue's own counters are available via InnerStats.
func (l *LOITER) Stats() core.Snapshot { return l.stats.Read() }

// InnerStats returns the inner (slow path) MCS lock's counters.
func (l *LOITER) InnerStats() core.Snapshot { return l.inner.Stats() }

var _ ContextMutex = (*LOITER)(nil)
