package lock

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/park"
)

// clhNode is a CLH queue element. Unlike MCS, a waiter spins on its
// predecessor's node; once the predecessor is granted and displaced it is
// dropped for the GC. Padded to a full cache line so each waiter's spin
// target occupies its own coherence granule (see layout_test.go).
//
// pred records the node this waiter spins on, published before any
// abandon so a successor that observes stateAbandoned (acquire) can
// inherit the wait: CLH excision is performed by the successor, not the
// unlock path. pred pointers are immutable once set and abandoned states
// are terminal, so at most one live waiter ever walks to a given
// predecessor.
//
//lockcheck:line=1
type clhNode struct {
	waitCell
	pred *clhNode
	_    [pad.CacheLineSize - 24]byte
}

// newCLHNode allocates a fresh node. CLH nodes are deliberately NOT
// pooled: TryLock compare-and-swaps the tail against a previously loaded
// node pointer, and recycling would admit an ABA — the snapshot node could
// be freed, drawn from the pool by another Lock on the same CLH instance,
// and republished as the live tail, letting a stale TryLock CAS succeed
// against a node that now belongs to the current holder (two owners).
// Garbage collection makes the pointer CAS safe: a node cannot be
// reallocated while any goroutine still holds a reference to it — which
// is also what lets a cancelled waiter simply mark its node abandoned and
// leave: the chain of abandoned nodes stays reachable until the inheriting
// successor walks past it, then becomes garbage.
func newCLHNode() *clhNode {
	return new(clhNode)
}

// CLH is the Craig–Landin–Hagersten queue lock: strict FIFO, direct
// handoff, local spinning on the predecessor's flag. Included as the
// second classic FIFO baseline (the paper's related work discusses its
// NUMA-hierarchical descendant, HCLH).
type CLH struct {
	// tail is the arrival word; isolated from the holder-only fields.
	tail atomic.Pointer[clhNode]
	_    [pad.CacheLineSize - 8]byte

	// node published by the current owner (granted at unlock);
	// lock-protected. The displaced predecessor is simply dropped and
	// reclaimed by the GC (see newCLHNode).
	ownerNode *clhNode
	stats     *core.Stats
}

// NewCLH returns an unlocked CLH lock.
func NewCLH(opts ...Option) *CLH {
	cfg := buildConfig(opts)
	return &CLH{stats: cfg.newStats()}
}

func init() {
	Register(Registration{
		Name:    "clh",
		Summary: "CLH queue lock: FIFO, waiting on the predecessor's node",
		Build:   func(opts ...Option) Mutex { return NewCLH(opts...) },
	})
}

// Lock enqueues the caller and waits on its predecessor's flag. A nil tail
// or a predecessor in granted state means the lock is free.
func (l *CLH) Lock() {
	n := newCLHNode()
	pred := l.tail.Swap(n)
	if pred == nil {
		l.ownerNode = n
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return
	}
	// n.pred stays nil on the arrival path: a plain-Lock waiter never
	// abandons its node, so no successor will ever read its pred —
	// skipping the store keeps a pointer write barrier off the hot path
	// and keeps granted nodes from retaining their predecessor history
	// for the GC. waitOn's path compression may still set it (inherit);
	// clear that on grant so the invariant — granted nodes hold no
	// predecessor references — survives mixed cancellable traffic.
	parked, _ := l.waitOn(nil, n, pred)
	if n.pred != nil {
		n.pred = nil
	}
	l.ownerNode = n
	slowAcquireStats(l.stats, parked)
}

// LockContext is Lock with cancellation. A cancelled CLH waiter marks its
// own node abandoned and leaves; the excision is lazy and successor-side:
// whoever waits on the abandoned node (a current waiter or a future
// arrival) walks to the node's predecessor and inherits the wait there.
// Until a successor arrives, an abandoned tail makes the lock look held
// to TryLock — the next Lock/LockContext arrival restores it.
//
//lockcheck:acquires l
func (l *CLH) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	n := newCLHNode()
	pred := l.tail.Swap(n)
	if pred == nil {
		l.ownerNode = n
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	// Unlike plain Lock, a cancellable waiter may abandon, so its node
	// must carry the pred pointer successors will inherit.
	n.pred = pred
	parked, err := l.waitOn(ctx, n, pred)
	if err != nil {
		// Abandon our own node so the successor can inherit pred. The
		// grant cannot race here: only we grant our node, at unlock.
		n.abandon()
		cancelStats(l.stats, parked)
		return err
	}
	// Granted: the node can never be abandoned now, so no successor will
	// read n.pred — clear it so granted nodes do not chain-retain their
	// predecessors.
	n.pred = nil
	l.ownerNode = n
	slowAcquireStats(l.stats, parked)
	return nil
}

// waitOn waits for a node on the predecessor chain to be granted,
// inheriting earlier predecessors whenever a cancelled waiter abandons
// the node being watched: it parks on the predecessor's cell at once. ctx
// may be nil, or have a nil Done() — first asked for here — and then the
// wait is unbounded. On err != nil the caller still owns its node and must
// abandon it itself.
//
// Each inheritance step path-compresses: the walker republishes its own
// node's pred to the inherited target (retarget), so when the walker
// itself later abandons, its successor resumes at the live frontier
// instead of re-walking the dead prefix — each abandoned node is
// traversed, counted, and unreferenced exactly once. Writing n.pred here
// is safe: a successor reads it only after observing n's abandon CAS,
// which orders after every write below.
//
// A subtlety of inheritance: the abandoning waiter may already have
// published stateParked on the watched cell and allocated its parker. The
// inheritor then parks on that same parker — safe, because the abandoner
// never touches the cell after its abandon CAS, and the CAS's ordering
// publishes the parker allocation.
func (l *CLH) waitOn(ctx context.Context, n, pred *clhNode) (parked bool, err error) {
	if pred.state.Load() == stateGranted {
		// The lock was free — a released CLH lock keeps its last node as
		// the tail — so there is no wait, and nothing to ask ctx for.
		return false, nil
	}
	for {
		switch pred.state.Load() {
		case stateGranted:
			return parked, nil
		case stateAbandoned:
			pred = l.inherit(n, pred)
			continue
		case stateWaiting:
			// Publish stateParked on the predecessor's cell.
			if pred.parker == nil {
				pred.parker = park.NewParker()
			}
			if !pred.state.CompareAndSwap(stateWaiting, stateParked) {
				continue // granted or abandoned; re-examine
			}
		}
		// The cell is parked: by us, or left so by a cancelled
		// predecessor-watcher, whose parker the CAS that set the state
		// published.
		parked = true
		for {
			pred.parker.ParkContext(ctx)
			switch pred.state.Load() {
			case stateGranted:
				return true, nil
			case stateAbandoned:
				// The waiter that owned this node cancelled and unparked
				// us; inherit its predecessor.
				pred = l.inherit(n, pred)
			default:
				if ctx != nil && ctx.Err() != nil {
					return true, ctx.Err()
				}
				continue // spurious wakeup; park again
			}
			break // re-enter the outer loop on the inherited predecessor
		}
	}
}

// inherit steps waiter n's watch target past the abandoned node pred,
// path-compressing n.pred to the new target (see waitOn).
func (l *CLH) inherit(n, pred *clhNode) *clhNode {
	l.stats.Inc(core.EvAbandons)
	n.pred = pred.pred
	return n.pred
}

// TryLock acquires the lock only if it is observably free. The failure
// path allocates no node until the lock looks free.
func (l *CLH) TryLock() bool {
	t := l.tail.Load()
	if t != nil && t.state.Load() != stateGranted {
		return false
	}
	n := newCLHNode()
	if !l.tail.CompareAndSwap(t, n) {
		return false
	}
	// We displaced a granted (free) node or nil; the old tail is dropped
	// for the GC.
	l.ownerNode = n
	l.stats.Inc2(core.EvFastPath, core.EvAcquires)
	return true
}

// Unlock grants the owner's node, passing the lock to the successor
// spinning on it (or marking the lock free if none arrives). The plain
// grant is safe here: waiters abandon only their own nodes, never the
// node they spin on, so the owner's cell cannot be abandoned.
//
//lockcheck:cs
func (l *CLH) Unlock() {
	n := l.ownerNode
	if n == nil {
		panic("lock: CLH.Unlock of unlocked mutex")
	}
	l.ownerNode = nil
	handoffDone(l.stats, n.grant())
}

// Stats returns a snapshot of the lock's event counters.
func (l *CLH) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*CLH)(nil)
