package lock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pad"
)

// lifoNode is a stack element for LIFOCR waiters, padded to a full cache
// line so each waiter's spin flag owns its coherence granule.
//
//lockcheck:line=1
type lifoNode struct {
	waitCell
	next *lifoNode // stack link; immutable after push until popped
	_    [pad.CacheLineSize - 24]byte
}

var lifoPool = sync.Pool{New: func() any { return new(lifoNode) }}

// newLifoNode returns a ready-to-push node; pooled nodes are reset at free
// time, so the acquisition path issues no stores here.
func newLifoNode() *lifoNode {
	return lifoPool.Get().(*lifoNode)
}

// freeLifoNode restores the reset state and recycles the node.
func freeLifoNode(n *lifoNode) {
	n.state.Store(stateWaiting)
	n.next = nil
	lifoPool.Put(n)
}

// LIFOCR is the paper's LIFO-CR lock (Appendix A.2): an explicit stack
// ("Treiber style") of waiting threads with direct handoff to the most
// recently arrived waiter. Mostly-LIFO admission is a natural concurrency
// restrictor: the ACS is the owner, the circulating threads, and the top
// of the stack, while threads deeper on the stack form the passive set.
// Long-term fairness comes from a Bernoulli trial that periodically grants
// the eldest waiter — the bottom of the stack — instead of the top.
//
// The stack is multiple-producer single-consumer: only the lock holder
// pops, so the pop path is immune to ABA. LIFO handoff pairs especially
// well with spin-then-park waiting: the thread most likely to be granted
// next is the most recently arrived, which is also the thread most likely
// to still be spinning (§5.1, Appendix A.2) — on kernel threads; here a
// spin-then-park waiter parks at once, so LIFO keeps only its warm cache.
type LIFOCR struct {
	// top encodes the composite lock word:
	//   nil          — unlocked
	//   &lockedEmpty — locked, no waiters
	//   other        — locked, top of the waiter stack
	// It is the CAS target of every arrival and release, so it sits alone
	// on its cache line. lockedEmpty is address-only (its fields are never
	// accessed), and lifoNode is itself line-sized, so it cannot false-share.
	top atomic.Pointer[lifoNode]
	_   [pad.CacheLineSize - 8]byte

	lockedEmpty lifoNode

	trial *core.Trial // lock-protected (unlock path only)
	cfg   config
	stats *core.Stats
}

func init() {
	Register(Registration{
		Name:    "lifocr",
		Summary: "LIFO-CR stack lock (App. A.2): handoff to the newest waiter, eldest promoted periodically",
		Build:   func(opts ...Option) Mutex { return NewLIFOCR(opts...) },
	})
}

// NewLIFOCR returns an unlocked LIFO-CR lock.
func NewLIFOCR(opts ...Option) *LIFOCR {
	cfg := buildConfig(opts)
	return &LIFOCR{
		cfg:   cfg,
		trial: core.NewTrial(cfg.fairness, cfg.seed),
		stats: cfg.newStats(),
	}
}

// Lock acquires the lock, pushing the caller onto the waiter stack if it
// is held.
func (l *LIFOCR) Lock() { l.lockStack(nil) }

// LockContext is Lock with cancellation. A cancelled waiter abandons its
// stack node in place; the node stays linked (pushes touch only the top,
// and only the holder pops) until the holder's pop or eldest-walk reaches
// it, fails the grant, and reclaims it. See ContextMutex and DESIGN.md.
func (l *LIFOCR) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	return l.lockStack(ctx)
}

// lockStack is the acquisition body shared by Lock and LockContext; a
// nil ctx waits indefinitely and cannot fail.
func (l *LIFOCR) lockStack(ctx context.Context) error {
	if l.top.CompareAndSwap(nil, &l.lockedEmpty) {
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	n := newLifoNode()
	for {
		top := l.top.Load()
		if top == nil {
			// Lock released while we prepared; try to take it.
			if l.top.CompareAndSwap(nil, &l.lockedEmpty) {
				freeLifoNode(n)
				l.stats.Inc2(core.EvFastPath, core.EvAcquires)
				return nil
			}
			continue
		}
		if top == &l.lockedEmpty {
			n.next = nil
		} else {
			n.next = top
		}
		if l.top.CompareAndSwap(top, n) {
			break
		}
	}
	parked, err := n.await(ctx, l.cfg.wait)
	if err != nil {
		// The node is now stateAbandoned and stays on the stack; the
		// holder reclaims it when a pop reaches it.
		cancelStats(l.stats, parked)
		return err
	}
	// Handoff: the granter popped our node; we own the lock now.
	freeLifoNode(n)
	slowAcquireStats(l.stats, parked)
	return nil
}

// TryLockFor is TryLock with a patience bound, built on LockContext.
func (l *LIFOCR) TryLockFor(d time.Duration) bool { return tryLockFor(l, d) }

// TryLock acquires the lock if it is free.
func (l *LIFOCR) TryLock() bool {
	if l.top.CompareAndSwap(nil, &l.lockedEmpty) {
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return true
	}
	return false
}

// Unlock releases the lock. If waiters exist, ownership passes by direct
// handoff to the top of the stack — or, on a fairness trial, to the bottom.
//
//lockcheck:cs
func (l *LIFOCR) Unlock() {
	for {
		top := l.top.Load()
		switch top {
		case nil:
			panic("lock: LIFOCR.Unlock of unlocked mutex")
		case &l.lockedEmpty:
			if l.top.CompareAndSwap(&l.lockedEmpty, nil) {
				return
			}
			// A waiter pushed itself meanwhile; retry with the new top.
			continue
		}
		// Waiters exist. Fairness trial: grant the eldest (stack bottom)
		// instead of the newest. Only the holder pops, so walking and
		// unlinking interior nodes is safe; new pushes only change the top.
		if top.next != nil && l.trial.Promote() {
			if l.grantEldest(top) {
				return
			}
			continue
		}
		// Pop the most recently arrived waiter and hand it the lock. If it
		// abandoned (cancelled LockContext), reclaim the node — we still
		// hold the lock — and retry against the remaining stack.
		var repl *lifoNode
		if top.next == nil {
			repl = &l.lockedEmpty
		} else {
			repl = top.next
		}
		if l.top.CompareAndSwap(top, repl) {
			if ok, unparked := top.tryGrant(); ok {
				handoffDone(l.stats, unparked)
				return
			}
			l.stats.Inc(core.EvAbandons)
			freeLifoNode(top)
		}
		// A push raced, or the popped waiter had abandoned; retry.
	}
}

// grantEldest unlinks the bottom-most live node below start and grants
// it, reclaiming abandoned nodes met at the bottom on the way. It returns
// false if the stack below start ran out of interior nodes (every one had
// abandoned); the caller then falls back to the normal pop path. Only the
// holder pops or unlinks, and pushes touch only the top, so walking and
// editing interior links is safe.
func (l *LIFOCR) grantEldest(start *lifoNode) bool {
	for start.next != nil {
		prev := start
		for prev.next.next != nil {
			prev = prev.next
		}
		eldest := prev.next
		prev.next = nil
		if ok, unparked := eldest.tryGrant(); ok {
			l.stats.Inc(core.EvPromotions)
			handoffDone(l.stats, unparked)
			return true
		}
		l.stats.Inc(core.EvAbandons)
		freeLifoNode(eldest)
	}
	return false
}

// Stats returns a snapshot of the lock's event counters.
func (l *LIFOCR) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*LIFOCR)(nil)
