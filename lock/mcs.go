package lock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pad"
)

// mcsNode is a waiter element on the MCS chain. Nodes are pooled: a node
// is owned by its enqueuing goroutine from Lock until the lock is
// released, and by nobody afterwards. The passive-list fields (prev) are
// used only by MCSCR while a node sits on the explicit passive list, where
// accesses are serialized by the lock itself.
//
// The trailing pad rounds the node up to exactly one cache line. Pooled
// nodes land in the 64-byte size class, whose slots are line-aligned, so a
// waiter spinning on its own wait flag never shares a coherence granule
// with a neighbouring waiter's flag or link being written (local spinning
// stays local). layout_test.go asserts the size.
//
//lockcheck:line=1
type mcsNode struct {
	waitCell // 16 bytes: state word + lazy parker
	next     atomic.Pointer[mcsNode]
	prev     *mcsNode // passive-list back link (MCSCR only; lock-protected)
	id       int      // optional owner tag for diagnostics
	_        [pad.CacheLineSize - 40]byte
}

var mcsPool = sync.Pool{New: func() any { return new(mcsNode) }}

// newMCSNode returns a ready-to-enqueue node. Pool invariant: nodes are
// reset when freed (and sync.Pool's New returns a zeroed node, which is
// the reset state), so the acquisition fast path issues no stores here.
func newMCSNode() *mcsNode {
	return mcsPool.Get().(*mcsNode)
}

// freeMCSNode restores the reset state and recycles the node. The caller
// owns the node exclusively at this point, so the stores cannot race with
// a waiter; doing the cleanup here moves it off the acquisition path.
func freeMCSNode(n *mcsNode) {
	n.state.Store(stateWaiting)
	n.next.Store(nil)
	n.prev = nil
	mcsPool.Put(n)
}

// MCS is the classic Mellor-Crummey–Scott queue lock (§4 footnote 10):
// strict FIFO admission, direct handoff, local spinning on a per-waiter
// flag. Arriving threads append a node at the tail; the owner's node is
// the implicit head; unlock passes ownership to the next node.
//
// The waiting policy selects MCS-S (polite spin) or MCS-STP
// (spin-then-park). The paper shows MCS-STP interacts badly with direct
// handoff under contention: the longest waiter — next in FIFO order — is
// the one most likely to have parked, so every handover pays an unpark.
type MCS struct {
	// tail is the only word every arriving thread writes; it sits alone
	// on its cache line, away from the holder-only fields below.
	tail atomic.Pointer[mcsNode]
	_    [pad.CacheLineSize - 8]byte

	owner *mcsNode // node of the current holder; lock-protected
	cfg   config
	stats *core.Stats
}

// NewMCS returns an unlocked MCS lock. By default it uses spin-then-park
// waiting; use WithWaitPolicy(WaitSpin) for the "-S" variant.
func NewMCS(opts ...Option) *MCS {
	cfg := buildConfig(opts)
	return &MCS{cfg: cfg, stats: cfg.newStats()}
}

func init() {
	Register(Registration{
		Name:    "mcs-stp",
		Aliases: []string{"mcs"},
		Summary: "classic MCS queue lock, spin-then-park waiting",
		Build:   func(opts ...Option) Mutex { return NewMCS(append(opts, WithWaitPolicy(WaitSpinThenPark))...) },
	})
	Register(Registration{
		Name:    "mcs-s",
		Summary: "classic MCS queue lock, unbounded polite spinning",
		Build:   func(opts ...Option) Mutex { return NewMCS(append(opts, WithWaitPolicy(WaitSpin))...) },
	})
}

// Lock enqueues the caller and waits for direct handoff.
func (l *MCS) Lock() { l.lockChain(nil) }

// LockContext is Lock with cancellation: a waiter whose ctx expires
// abandons its chain node (which the next unlock excises) and returns
// ctx.Err(). See ContextMutex for the shared semantics.
func (l *MCS) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	return l.lockChain(ctx)
}

// lockChain is the acquisition body shared by Lock and LockContext; a
// nil ctx waits indefinitely and cannot fail.
func (l *MCS) lockChain(ctx context.Context) error {
	n := newMCSNode()
	pred := l.tail.Swap(n)
	if pred == nil {
		// Uncontended: we are the head and the owner.
		l.owner = n
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	pred.next.Store(n)
	parked, err := n.await(ctx, l.cfg.wait)
	if err != nil {
		// The node is now stateAbandoned; the unlock path owns it.
		cancelStats(l.stats, parked)
		return err
	}
	l.owner = n
	slowAcquireStats(l.stats, parked)
	return nil
}

// TryLockFor is TryLock with a patience bound, built on LockContext.
func (l *MCS) TryLockFor(d time.Duration) bool { return tryLockFor(l, d) }

// TryLock acquires the lock only if the chain is empty. The failure path
// is allocation-free: a node is drawn from the pool only after the chain
// is observed empty.
func (l *MCS) TryLock() bool {
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

// Unlock passes ownership to the next waiter, if any. Abandoned
// successors (cancelled LockContext waiters) are excised and recycled as
// the walk passes them: each loop iteration either hands off to a live
// waiter, empties the chain, or skips one abandoned node.
//
//lockcheck:cs
func (l *MCS) Unlock() {
	n := l.owner
	if n == nil {
		panic("lock: MCS.Unlock of unlocked mutex")
	}
	l.owner = nil
	for {
		succ := n.next.Load()
		if succ == nil {
			if l.tail.CompareAndSwap(n, nil) {
				freeMCSNode(n)
				return
			}
			// An arrival is between the tail swap and the next-link store;
			// wait for the link to appear.
			for succ = n.next.Load(); succ == nil; succ = n.next.Load() {
				politePause(1)
			}
		}
		if ok, unparked := succ.tryGrant(); ok {
			freeMCSNode(n)
			handoffDone(l.stats, unparked)
			return
		}
		// succ abandoned its acquisition: it becomes the departing head
		// (nobody references the old head anymore) and the walk goes on.
		l.stats.Inc(core.EvAbandons)
		freeMCSNode(n)
		n = succ
	}
}

// Stats returns a snapshot of the lock's event counters.
func (l *MCS) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*MCS)(nil)
