package lock

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
)

// MCSCR is the paper's Malthusian MCS lock (§4): a classic MCS lock whose
// unlock operator performs concurrency restriction by editing the MCS
// chain.
//
//   - Culling: at unlock time, if there are intermediate nodes between the
//     owner's node and the tail, the lock has surplus waiters. One
//     intermediate node is excised and pushed onto the head of the
//     explicit passive list. Repeated culling converges to the desirable
//     state where at most one ACS member waits at any moment.
//   - Reprovisioning: if the chain is empty except for the owner but the
//     passive list is not, the head of the passive list (the most recently
//     arrived passive thread) is grafted back and granted ownership,
//     keeping the policy work conserving.
//   - Long-term fairness: with probability 1/FairnessPeriod per unlock,
//     the tail of the passive list — the least recently arrived, most
//     starved thread — is grafted immediately after the owner and granted
//     ownership.
//
// All CR machinery lives in the unlock path; the lock (arrival) path is
// unchanged classic MCS. Operations on the passive list occur while the
// lock is held, so the passive list is protected by the lock itself; the
// paper notes this slightly lengthens the critical section but the added
// work is short and constant time.
//
// The ACS is implicit (owner + threads in their non-critical sections +
// the at-most-one waiting thread); the PS is the explicit list.
type MCSCR struct {
	// tail is the word every arriving thread swaps; it lives alone on its
	// cache line so arrivals do not invalidate the holder-only fields.
	tail atomic.Pointer[mcsNode]
	_    [pad.CacheLineSize - 8]byte

	owner *mcsNode // node of current holder; lock-protected

	// Passive set: intrusive doubly-linked list, lock-protected.
	// psHead is the most recently culled thread, psTail the eldest.
	// psSize is written under the lock but read lock-free by monitors
	// (PassiveSize), hence atomic.
	psHead *mcsNode
	psTail *mcsNode
	psSize atomic.Int64

	trial *core.Trial
	stats *core.Stats
}

// NewMCSCR returns an unlocked Malthusian MCS lock, the paper's MCSCR-STP.
func NewMCSCR(opts ...Option) *MCSCR {
	cfg := buildConfig(opts)
	return &MCSCR{
		trial: core.NewTrial(cfg.fairness, cfg.seed),
		stats: cfg.newStats(),
	}
}

func init() {
	Register(Registration{
		Name:    "mcscr-stp",
		Aliases: []string{"mcscr"},
		Summary: "Malthusian MCS (§4): culling, reprovisioning, Bernoulli fairness; spin-then-park",
		Build:   func(opts ...Option) Mutex { return NewMCSCR(opts...) },
	})
}

// Lock enqueues the caller on the MCS chain and waits for handoff. Absent
// sufficient contention MCSCR behaves precisely like classic MCS.
func (l *MCSCR) Lock() { l.lockChain(nil) }

// LockContext is Lock with cancellation. A cancelled waiter abandons its
// node in place — whether it sits on the MCS chain or has been culled to
// the passive list — and the unlock paths excise it: the chain walk skips
// abandoned successors, and the passive-list pops filter abandoned
// entries before granting. See ContextMutex and DESIGN.md.
func (l *MCSCR) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	return l.lockChain(ctx)
}

// lockChain is the acquisition body shared by Lock and LockContext; a
// nil ctx waits indefinitely and cannot fail.
func (l *MCSCR) lockChain(ctx context.Context) error {
	n := newMCSNode()
	pred := l.tail.Swap(n)
	if pred == nil {
		l.owner = n
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	pred.next.Store(n)
	parked, err := n.await(ctx)
	if err != nil {
		// The node is now stateAbandoned; an unlock path owns it.
		cancelStats(l.stats, parked)
		return err
	}
	l.owner = n
	slowAcquireStats(l.stats, parked)
	return nil
}

// TryLock acquires the lock only if the chain is empty. The failure path
// is allocation-free: a node is drawn from the pool only after the chain
// is observed empty.
func (l *MCSCR) TryLock() bool {
	if l.tail.Load() != nil {
		return false
	}
	n := newMCSNode()
	if l.tail.CompareAndSwap(nil, n) {
		l.owner = n
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return true
	}
	freeMCSNode(n)
	return false
}

// Unlock releases the lock, performing culling, reprovisioning, or a
// fairness promotion as the chain and passive list dictate.
//
//lockcheck:cs
func (l *MCSCR) Unlock() {
	n := l.owner
	if n == nil {
		panic("lock: MCSCR.Unlock of unlocked mutex")
	}
	l.owner = nil

	// Long-term fairness graft: cede ownership to the eldest passive
	// thread on a successful Bernoulli trial. Abandoned entries at the
	// tail of the PS are reclaimed on the way; if the whole PS turns out
	// to be abandoned, fall through to the ordinary release.
	if l.psSize.Load() > 0 && l.trial.Promote() {
		if t := l.psPopLiveTail(); t != nil {
			l.stats.Inc(core.EvPromotions)
			l.graftAndGrant(n, t)
			return
		}
	}
	l.releaseChain(n)
}

// releaseChain hands the lock from the departing head n to the first live
// successor: the ordinary MCS handoff plus the CR edits (culling,
// reprovisioning) and the cancellation edits (excising abandoned nodes).
// Each iteration either completes the release or excises one node.
//
//lockcheck:cs
func (l *MCSCR) releaseChain(n *mcsNode) {
	for {
		succ := n.next.Load()
		if succ == nil {
			// No waiter visible on the chain. Work conservation: pull the
			// most recently arrived live passive thread back into the ACS.
			if l.psSize.Load() > 0 {
				if t := l.psPopLiveHead(); t != nil {
					if l.tail.CompareAndSwap(n, t) {
						freeMCSNode(n)
						if ok, unparked := t.tryGrant(); ok {
							l.stats.Inc(core.EvReprovisions)
							handoffDone(l.stats, unparked)
							return
						}
						// t abandoned in the handoff window; it is now the
						// departing head of a (possibly growing) chain.
						l.stats.Inc(core.EvAbandons)
						n = t
						continue
					}
					// An arrival raced with us; restore t and hand off to
					// the arriving thread below.
					l.psPushHead(t)
				}
			}
			if l.tail.CompareAndSwap(n, nil) {
				freeMCSNode(n)
				return
			}
			// An arrival swapped the tail but has not linked yet; wait for
			// the link to appear.
			for succ = n.next.Load(); succ == nil; succ = n.next.Load() {
				politePause(1)
			}
		}

		// Culling: if succ is not the tail there are surplus waiters;
		// excise succ — the oldest waiter — into the passive set (or
		// reclaim it outright if it has already abandoned) and hand off to
		// the next in line. One cull per unlock suffices to converge.
		if nn := succ.next.Load(); nn != nil {
			succ.next.Store(nil)
			if succ.state.Load() == stateAbandoned {
				freeMCSNode(succ)
				l.stats.Inc(core.EvAbandons)
			} else {
				l.psPushHead(succ)
				l.stats.Inc(core.EvCulls)
			}
			succ = nn
		}
		if ok, unparked := succ.tryGrant(); ok {
			freeMCSNode(n)
			handoffDone(l.stats, unparked)
			return
		}
		// succ abandoned: it becomes the departing head and the walk
		// continues behind it.
		l.stats.Inc(core.EvAbandons)
		freeMCSNode(n)
		n = succ
	}
}

// graftAndGrant inserts t immediately after the departing owner's node n
// and grants it ownership, preserving the rest of the chain. If t
// abandons in the window between the passive-list pop and the grant, the
// release falls back to the ordinary chain walk with t as departing head.
func (l *MCSCR) graftAndGrant(n, t *mcsNode) {
	succ := n.next.Load()
	if succ == nil {
		if l.tail.CompareAndSwap(n, t) {
			freeMCSNode(n)
			if ok, unparked := t.tryGrant(); ok {
				handoffDone(l.stats, unparked)
				return
			}
			l.stats.Inc(core.EvAbandons)
			l.releaseChain(t)
			return
		}
		for succ = n.next.Load(); succ == nil; succ = n.next.Load() {
			politePause(1)
		}
	}
	t.next.Store(succ)
	freeMCSNode(n)
	if ok, unparked := t.tryGrant(); ok {
		handoffDone(l.stats, unparked)
		return
	}
	l.stats.Inc(core.EvAbandons)
	l.releaseChain(t)
}

// Passive-list operations. All run in the unlock path while the lock is
// held; the MCS lock protects the list (§4). A waiter parked on the PS
// may abandon (cancelled LockContext) at any moment — only its state word
// changes; the list links stay lock-protected — so the pop paths filter:
// psPopLiveHead/psPopLiveTail reclaim abandoned entries until they find a
// live one.

func (l *MCSCR) psPopLiveHead() *mcsNode { return l.psPopLive(false) }
func (l *MCSCR) psPopLiveTail() *mcsNode { return l.psPopLive(true) }

func (l *MCSCR) psPopLive(fromTail bool) *mcsNode {
	for l.psSize.Load() > 0 {
		var t *mcsNode
		if fromTail {
			t = l.psPopTail()
		} else {
			t = l.psPopHead()
		}
		if t.state.Load() != stateAbandoned {
			return t
		}
		freeMCSNode(t)
		l.stats.Inc(core.EvAbandons)
	}
	return nil
}

func (l *MCSCR) psPushHead(n *mcsNode) {
	n.prev = nil
	if l.psHead == nil {
		l.psHead, l.psTail = n, n
	} else {
		n.next.Store(l.psHead)
		l.psHead.prev = n
		l.psHead = n
	}
	l.psSize.Add(1)
}

func (l *MCSCR) psPopHead() *mcsNode {
	n := l.psHead
	next := n.next.Load()
	l.psHead = next
	if next == nil {
		l.psTail = nil
	} else {
		next.prev = nil
	}
	n.next.Store(nil)
	n.prev = nil
	l.psSize.Add(-1)
	return n
}

func (l *MCSCR) psPopTail() *mcsNode {
	n := l.psTail
	prev := n.prev
	l.psTail = prev
	if prev == nil {
		l.psHead = nil
	} else {
		prev.next.Store(nil)
	}
	n.next.Store(nil)
	n.prev = nil
	l.psSize.Add(-1)
	return n
}

// PassiveSize reports the current size of the passive set. Safe to call
// concurrently with lock traffic (the counter is atomic); the value is a
// point-in-time observation for monitoring and tests.
func (l *MCSCR) PassiveSize() int { return int(l.psSize.Load()) }

// Stats returns a snapshot of the lock's event counters.
func (l *MCSCR) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*MCSCR)(nil)
