package sim

import (
	"repro/internal/core"
	"repro/metrics"
)

// LockKind selects the simulated lock algorithm.
type LockKind uint8

const (
	// KindNull is the degenerate lock (no exclusion; harness calibration).
	KindNull LockKind = iota
	// KindTAS is a test-and-set lock: competitive succession, global
	// spinning/polling, unbounded barging.
	KindTAS
	// KindMCS is classic MCS: strict FIFO, direct handoff.
	KindMCS
	// KindMCSCR is the Malthusian MCS lock: MCS plus culling, an explicit
	// passive set, reprovisioning and Bernoulli fairness promotion (§4).
	KindMCSCR
	// KindLIFO is a pure LIFO lock (most recently arrived waiter first)
	// with Bernoulli eldest promotion — LIFO-CR (Appendix A.2).
	KindLIFO
	// KindMCSCRN is the NUMA-aware Malthusian lock of §9.1 (future
	// work): MCSCR plus a preferred home socket and an explicit remote
	// list. At unlock time, waiters running on other sockets are culled
	// from the chain to the remote list, keeping the ACS homogeneous and
	// reducing lock migrations; periodically a new home socket is
	// selected from the remote list and its threads drained back,
	// conferring long-term fairness.
	KindMCSCRN
)

// String names the kind as the paper does.
func (k LockKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindTAS:
		return "TAS"
	case KindMCS:
		return "MCS"
	case KindMCSCR:
		return "MCSCR"
	case KindLIFO:
		return "LIFOCR"
	case KindMCSCRN:
		return "MCSCRN"
	default:
		return "?"
	}
}

// WaitMode selects the waiting policy of a lock, condition variable or
// semaphore (§5.1).
type WaitMode uint8

const (
	// ModeSpin: unbounded polite spinning ("-S").
	ModeSpin WaitMode = iota
	// ModeSTP: spin-then-park with the configured spin budget ("-STP").
	ModeSTP
	// ModePark: park immediately (no spin phase).
	ModePark
)

// String returns the paper's suffix for the mode.
func (m WaitMode) String() string {
	switch m {
	case ModeSpin:
		return "S"
	case ModeSTP:
		return "STP"
	case ModePark:
		return "P"
	default:
		return "?"
	}
}

// LockSpec configures a simulated lock.
type LockSpec struct {
	Kind LockKind
	Mode WaitMode
	// FairnessPeriod is the Bernoulli promotion period for CR locks
	// (default 1000 when zero and the kind is a CR lock; set to
	// NoFairness to disable).
	FairnessPeriod uint64
}

// NoFairness disables long-term fairness promotion in a CR lock.
const NoFairness = ^uint64(0)

// LockStats counts CR events in a simulated lock.
type LockStats struct {
	Acquires         uint64
	Culls            uint64
	Reprovisions     uint64
	Promotions       uint64
	HandoffsToParked uint64 // handoffs that had to wake a parked successor
	LockMigrations   uint64 // ownership handoffs that crossed sockets
	HomeSwitches     uint64 // MCSCRN home-node changes
}

// Lock is a lock living inside the simulated world.
type Lock struct {
	e    *Engine
	kind LockKind
	mode WaitMode

	held  bool
	owner *Thread

	queue   []*Thread // MCS chain (FIFO) or LIFO stack (last index = top)
	passive []*Thread // MCSCR passive set; last index = most recently culled, index 0 = eldest

	// MCSCRN state: preferred NUMA node and the remote-thread list.
	home   int
	remote []*Thread

	lastOwnerSocket int // previous owner's socket, for migration accounting

	trial *core.Trial

	hist  metrics.History
	stats LockStats
}

// NewLock creates a lock in this engine's world.
func (e *Engine) NewLock(spec LockSpec) *Lock {
	period := spec.FairnessPeriod
	switch {
	case period == NoFairness:
		period = 0
	case period == 0:
		period = core.DefaultFairnessPeriod
	}
	l := &Lock{
		e:               e,
		kind:            spec.Kind,
		mode:            spec.Mode,
		lastOwnerSocket: -1,
		trial:           core.NewTrial(period, e.cfg.Seed*7919+uint64(len(e.locks))+1),
	}
	e.locks = append(e.locks, l)
	return l
}

// History returns the admission history recorded since the last metrics
// reset.
func (l *Lock) History() metrics.History { return l.hist }

// Stats returns the lock's event counters.
func (l *Lock) Stats() LockStats { return l.stats }

// PassiveSize returns the current passive-set size (MCSCR).
func (l *Lock) PassiveSize() int { return len(l.passive) }

// QueueLen returns the current waiter-queue length.
func (l *Lock) QueueLen() int { return len(l.queue) }

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.held }

func (l *Lock) admit(t *Thread) {
	l.held = true
	l.owner = t
	l.hist = append(l.hist, int32(t.ID))
	l.stats.Acquires++
}

// tryAcquireNow attempts an immediate acquisition (arrival fast path).
// For TAS this is barging; for queue locks it succeeds only when the lock
// is free and unqueued.
func (l *Lock) tryAcquireNow(t *Thread) bool {
	if l.kind == KindNull {
		l.hist = append(l.hist, int32(t.ID))
		l.stats.Acquires++
		return true
	}
	if l.held {
		return false
	}
	if l.kind != KindTAS && (len(l.queue) > 0 || len(l.passive) > 0 || len(l.remote) > 0) {
		// Queue locks are FIFO at arrival: joining behind waiters. (A
		// free lock with a non-empty queue is transient in the model —
		// ownership transfers atomically — so this is mostly the passive
		// check for MCSCR/MCSCRN.)
		return false
	}
	l.admit(t)
	if l.e.cfg.Sockets > 1 {
		// Track the owner's socket for migration accounting; barging
		// onto a free lock is not a handoff, so no penalty is charged.
		l.lastOwnerSocket = l.e.SocketOf(t)
	}
	return true
}

// tryBargeFromPoll is the TAS polling acquisition: a spinning waiter
// re-tests the lock word. On success the waiter is dequeued and becomes
// owner; competitive succession means arrivals may have barged first.
func (l *Lock) tryBargeFromPoll(t *Thread) bool {
	if l.held {
		return false
	}
	l.removeWaiter(t)
	l.admit(t)
	t.granted = true
	return true
}

// enqueue adds a waiting thread per the lock's discipline.
func (l *Lock) enqueue(t *Thread) {
	// FIFO locks dequeue from the front; the LIFO lock pops from the
	// back, so a plain append is a stack push there.
	l.queue = append(l.queue, t)
}

func (l *Lock) removeWaiter(t *Thread) {
	for i, w := range l.queue {
		if w == t {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// release ends t's ownership and performs succession. It returns the
// administrative cost borne by the releasing thread (beyond the base lock
// operation): waking a parked successor costs a kernel call made while the
// lock is conceptually still in handover — the artificial critical-section
// stretch of §5.2.
func (l *Lock) release(t *Thread) Cycles {
	if l.kind == KindNull {
		return 0
	}
	if !l.held || l.owner != t {
		panic("sim: release by non-owner")
	}
	l.owner = nil

	switch l.kind {
	case KindTAS:
		l.held = false
		// Competitive succession: spinning waiters will notice at their
		// next poll; if every waiter is parked, wake one heir presumptive
		// (most recently parked, matching the Solaris mostly-LIFO queue).
		for _, w := range l.queue {
			if w.state == stateSpinning || w.state == stateReady {
				return 0
			}
		}
		if n := len(l.queue); n > 0 {
			heir := l.queue[n-1]
			return l.e.wake(heir) // wakes to retry; granted stays false
		}
		return 0

	case KindMCS:
		if len(l.queue) == 0 {
			l.held = false
			return 0
		}
		succ := l.queue[0]
		l.queue = l.queue[1:]
		return l.grant(succ)

	case KindLIFO:
		if len(l.queue) == 0 {
			l.held = false
			return 0
		}
		// Fairness: occasionally grant the eldest (bottom of stack,
		// which is the front of the slice).
		if len(l.queue) > 1 && l.trial.Promote() {
			succ := l.queue[0]
			l.queue = l.queue[1:]
			l.stats.Promotions++
			return l.grant(succ)
		}
		top := len(l.queue) - 1
		succ := l.queue[top]
		l.queue = l.queue[:top]
		return l.grant(succ)

	case KindMCSCR:
		return l.releaseMCSCR()

	case KindMCSCRN:
		return l.releaseMCSCRN()
	}
	return 0
}

// releaseMCSCR is the §4 unlock path: fairness promotion, reprovisioning,
// culling, then direct handoff.
func (l *Lock) releaseMCSCR() Cycles {
	// Long-term fairness: cede to the eldest passive thread (front of
	// the slice).
	if len(l.passive) > 0 && l.trial.Promote() {
		succ := l.passive[0]
		l.passive = l.passive[1:]
		l.stats.Promotions++
		return l.grant(succ)
	}
	if len(l.queue) == 0 {
		// Work conservation: reprovision the most recently culled thread
		// (back of the slice).
		if len(l.passive) > 0 {
			last := len(l.passive) - 1
			succ := l.passive[last]
			l.passive = l.passive[:last]
			l.stats.Reprovisions++
			return l.grant(succ)
		}
		l.held = false
		return 0
	}
	// Culling: excise the oldest waiter if it is not alone (i.e. there
	// are intermediate nodes between owner and tail).
	if len(l.queue) >= 2 {
		culled := l.queue[0]
		l.queue = l.queue[1:]
		l.passive = append(l.passive, culled)
		l.stats.Culls++
	}
	succ := l.queue[0]
	l.queue = l.queue[1:]
	return l.grant(succ)
}

// releaseMCSCRN is the §9.1 unlock path: like MCSCR, but the culling
// criterion also considers the demographics of the chain — remote threads
// (running on a socket other than the current home) are culled to the
// remote list, and a Bernoulli trial periodically elects a new home node
// from the remote list and drains its threads back into the chain.
func (l *Lock) releaseMCSCRN() Cycles {
	// Long-term fairness: on a successful trial, either promote the
	// eldest local passive thread (as in MCSCR) or elect a new home node
	// from the remote list and drain that node's threads into the chain.
	// Both lots must be served or their occupants starve.
	if (len(l.remote) > 0 || len(l.passive) > 0) && l.trial.Promote() {
		usePassive := len(l.passive) > 0 && (len(l.remote) == 0 || l.trial.Prob(0.5))
		if usePassive {
			succ := l.passive[0]
			l.passive = l.passive[1:]
			l.stats.Promotions++
			return l.grant(succ)
		}
		newHome := l.e.SocketOf(l.remote[0])
		l.home = newHome
		l.stats.HomeSwitches++
		kept := l.remote[:0]
		for _, w := range l.remote {
			if l.e.SocketOf(w) == newHome {
				l.queue = append(l.queue, w)
			} else {
				kept = append(kept, w)
			}
		}
		l.remote = kept
		l.stats.Promotions++
	}
	// Cull remote threads from the head of the chain (the owner
	// "inspects the next threads in the MCS chain and culls remote
	// threads from the main chain to the remote list"), keeping at least
	// one waiter to grant.
	for len(l.queue) >= 2 && l.e.SocketOf(l.queue[0]) != l.home {
		l.remote = append(l.remote, l.queue[0])
		l.queue = l.queue[1:]
		l.stats.Culls++
	}
	// Local surplus culling, as in MCSCR.
	if len(l.queue) >= 2 && l.e.SocketOf(l.queue[0]) == l.home && l.e.SocketOf(l.queue[1]) == l.home {
		l.passive = append(l.passive, l.queue[0])
		l.queue = l.queue[1:]
		l.stats.Culls++
	}
	if len(l.queue) == 0 {
		// Deficit: reprovision from the local passive set first, then
		// from the remote list (switching home to the donor's node).
		if len(l.passive) > 0 {
			last := len(l.passive) - 1
			succ := l.passive[last]
			l.passive = l.passive[:last]
			l.stats.Reprovisions++
			return l.grant(succ)
		}
		if len(l.remote) > 0 {
			last := len(l.remote) - 1
			succ := l.remote[last]
			l.remote = l.remote[:last]
			l.home = l.e.SocketOf(succ)
			l.stats.HomeSwitches++
			l.stats.Reprovisions++
			return l.grant(succ)
		}
		l.held = false
		return 0
	}
	succ := l.queue[0]
	l.queue = l.queue[1:]
	l.home = l.e.SocketOf(succ)
	return l.grant(succ)
}

// RemoteSize reports the current remote-list size (MCSCRN).
func (l *Lock) RemoteSize() int { return len(l.remote) }

// grant conveys ownership to succ (direct handoff) and returns the waker's
// cost. Handoffs that cross sockets pay the remote coherence penalty and
// count as lock migrations.
func (l *Lock) grant(succ *Thread) Cycles {
	l.admit(succ)
	succ.granted = true
	if succ.state == stateParked {
		l.stats.HandoffsToParked++
	}
	var cost Cycles
	if l.e.cfg.Sockets > 1 {
		s := l.e.SocketOf(succ)
		if l.lastOwnerSocket >= 0 && s != l.lastOwnerSocket {
			l.stats.LockMigrations++
			cost += l.e.cfg.RemoteHandoffPenalty
		}
		l.lastOwnerSocket = s
	}
	return cost + l.e.wake(succ)
}
