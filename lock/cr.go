package lock

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// crNode is a passive waiter on a crLock's stack. Its links and stacked
// flag are written only under the owning crLock's latch; its waitCell is
// the grant-vs-abandon arbiter, as on the queue locks. The goroutine that
// pushed a node is the only one that frees it.
type crNode struct {
	waitCell
	up, down *crNode // toward the top (newest) and the bottom (eldest)
	stacked  bool    // still on the stack: neither admitted nor excised
}

var crPool = sync.Pool{New: func() any { return new(crNode) }}

// freeCRNode recycles a node that is off the stack (unlink cleared its
// links), restoring the waiting state.
func freeCRNode(n *crNode) {
	n.state.Store(stateWaiting)
	crPool.Put(n)
}

// crLock is concurrency restriction at admission, over any lock: generic
// concurrency restriction (GCR; Dice and Kogan, "Avoiding Scalability
// Collapse by Restricting Concurrency", Euro-Par 2019) as a layer. New
// applies it to the lock a spec names when the spec carries cr=true.
//
// It admits at most core.Parallelism goroutines — min(GOMAXPROCS,
// NumCPU), read once, at construction — to the inner lock, holder
// included, and parks the surplus on a passive LIFO stack until the
// admitted set drains. The NumCPU bound is what makes the cap bind where
// the paper's collapse happens: with more Ps than CPUs, GOMAXPROCS
// admits every runnable thread. On a 1-CPU host the holder is the only
// admitted goroutine.
//
//   - Uncontended, Lock is the inner TryLock and nothing more: no shared
//     read-modify-write is added to the fast path.
//   - A TryLock miss first tries to take one of the cap-1 waiter slots
//     (a CAS on waiters) and then waits in the inner lock.
//   - Past that, the entrant is culled: it pushes itself on the passive
//     stack under the latch, tries the inner TryLock once more, and only
//     then parks.
//   - Unlock releases the inner lock and then loads the passive count. If
//     a passive waiter exists and no admitted waiter is left, it admits
//     the top of the stack (a reprovision). With probability
//     1/FairnessPeriod per unlock it admits the eldest instead (a
//     promotion), even when that puts one waiter over the cap, so nobody
//     is passive forever.
//
// The second TryLock closes the lost wakeup. An entrant stores to the
// passive count and then reads the inner lock word; an Unlock writes the
// lock word and then reads the passive count. One of the two sees the
// other's write: either the Unlock admits the entrant, or the entrant
// takes the free lock, or the lock had a new holder whose Unlock comes
// later and sees the entrant. Every other way the admitted set drains —
// an admitted waiter's cancellation — re-runs the admission check itself.
//
// Stats are the inner lock's plus the layer's own events: Culls (an
// entrant sent passive), Reprovisions and Promotions (an entrant
// admitted from the top or the bottom), Parks and Unparks of passive
// waiters, the Cancels of fail-fast and passive abandons, and Abandons
// for passive nodes an admission found abandoned.
type crLock struct {
	inner ContextMutex
	in    Instrumented // inner, when it counts events; else nil
	slots int32        // waiter slots: core.Parallelism()-1, the holder takes the last

	waiters atomic.Int32 // admitted goroutines that do not hold the inner lock yet
	passive atomic.Int32 // goroutines on the stack; written under latch, read by Unlock

	latch sync.Mutex
	//lockcheck:guardedby latch
	top *crNode
	//lockcheck:guardedby latch
	bottom *crNode

	trial *core.Trial // drawn only by the inner lock's holder, so serialized
	stats *core.Stats
}

// newCR layers concurrency restriction over m, with the fairness period,
// seed and stats setting of cfg.
func newCR(m Mutex, cfg config) (*crLock, error) {
	inner, ok := m.(ContextMutex)
	if !ok {
		return nil, fmt.Errorf("lock: cr=true needs a ContextMutex, and the registry built a %T", m)
	}
	in, _ := m.(Instrumented)
	return &crLock{
		inner: inner,
		in:    in,
		slots: int32(core.Parallelism()) - 1,
		trial: core.NewTrial(cfg.fairness, cfg.seed),
		stats: cfg.newStats(),
	}, nil
}

// Lock acquires the lock, waiting in the inner lock when admitted and on
// the passive stack otherwise.
//
//lockcheck:acquires c
func (c *crLock) Lock() {
	if !c.inner.TryLock() {
		_ = c.lockSlow(nil)
	}
}

// LockContext is Lock with cancellation. An admitted waiter cancels in
// the inner lock, by the inner lock's protocol; a passive waiter
// abandons its node with one CAS against the admission's grant and then
// unlinks it. See ContextMutex for the shared semantics.
//
//lockcheck:acquires c
func (c *crLock) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		c.stats.Inc(core.EvCancels)
		return err
	}
	if c.inner.TryLock() {
		return nil
	}
	return c.lockSlow(ctx)
}

// TryLock is the inner lock's TryLock.
//
//lockcheck:acquires c
func (c *crLock) TryLock() bool { return c.inner.TryLock() }

// lockSlow is the contended acquisition shared by Lock and LockContext;
// a nil ctx waits indefinitely and cannot fail.
//
//lockcheck:acquires c
func (c *crLock) lockSlow(ctx context.Context) error {
	for w := c.waiters.Load(); w < c.slots; w = c.waiters.Load() {
		if c.waiters.CompareAndSwap(w, w+1) {
			return c.lockAdmitted(ctx)
		}
	}
	n := crPool.Get().(*crNode)
	c.latch.Lock()
	c.push(n)
	c.latch.Unlock()
	c.stats.Inc(core.EvCulls)
	if c.inner.TryLock() {
		c.withdraw(n)
		return nil
	}
	parked, err := n.await(ctx)
	if err != nil {
		// The abandon CAS won: no admission can grant n now. An admission
		// that popped it first has already unlinked it.
		c.latch.Lock()
		if n.stacked {
			c.unlink(n)
		}
		c.latch.Unlock()
		freeCRNode(n)
		cancelStats(c.stats, parked)
		return err
	}
	if parked {
		c.stats.Inc(core.EvParks)
	}
	freeCRNode(n)
	return c.lockAdmitted(ctx)
}

// withdraw takes n back off the stack once its goroutine holds the inner
// lock. An admission that popped n first has granted it a waiter slot;
// the slot goes back, and this holder's Unlock runs the admission check.
func (c *crLock) withdraw(n *crNode) {
	c.latch.Lock()
	if n.stacked {
		c.unlink(n)
	} else {
		c.waiters.Add(-1)
	}
	c.latch.Unlock()
	freeCRNode(n)
}

// lockAdmitted waits in the inner lock in a waiter slot already taken.
//
//lockcheck:acquires c
func (c *crLock) lockAdmitted(ctx context.Context) error {
	var err error
	if ctx == nil {
		c.inner.Lock()
	} else {
		err = c.inner.LockContext(ctx) // counts its own Cancels
	}
	c.waiters.Add(-1)
	if err != nil && c.passive.Load() != 0 {
		// This waiter may have been the last of the admitted set, which
		// an Unlock counted on to admit the next passive one.
		c.admit(false)
	}
	return err
}

// Unlock releases the inner lock, then admits a passive waiter if the
// admitted set has drained or the fairness trial fires.
//
//lockcheck:holds c.inner
//lockcheck:releases c
func (c *crLock) Unlock() {
	eldest := c.passive.Load() != 0 && c.trial.Promote() // still the holder: serialized
	c.inner.Unlock()
	if eldest || c.passive.Load() != 0 && c.waiters.Load() == 0 {
		c.admit(eldest)
	}
}

// admit grants a waiter slot to the top of the stack, or to its bottom
// when eldest is set, skipping nodes whose waiters abandoned. Without
// eldest it admits only while no admitted waiter is left.
func (c *crLock) admit(eldest bool) {
	c.latch.Lock()
	c.admitLocked(eldest)
	c.latch.Unlock()
}

//lockcheck:holds c.latch
func (c *crLock) admitLocked(eldest bool) {
	for c.bottom != nil && (eldest || c.waiters.Load() == 0) {
		n, ev := c.top, core.EvReprovisions
		if eldest {
			n, ev = c.bottom, core.EvPromotions
		}
		c.unlink(n)
		c.waiters.Add(1)
		// Granted under the latch, so an abandoned n's goroutine, which
		// frees it only after taking the latch, cannot recycle it first.
		if ok, unparked := n.tryGrant(); ok {
			if unparked {
				c.stats.Inc2(ev, core.EvUnparks)
			} else {
				c.stats.Inc(ev)
			}
			break
		}
		c.waiters.Add(-1)
		c.stats.Inc(core.EvAbandons)
	}
}

//lockcheck:holds c.latch
func (c *crLock) push(n *crNode) {
	n.down, n.stacked = c.top, true
	if c.top == nil {
		c.bottom = n
	} else {
		c.top.up = n
	}
	c.top = n
	c.passive.Add(1)
}

//lockcheck:holds c.latch
func (c *crLock) unlink(n *crNode) {
	if n.up == nil {
		c.top = n.down
	} else {
		n.up.down = n.down
	}
	if n.down == nil {
		c.bottom = n.up
	} else {
		n.down.up = n.up
	}
	n.up, n.down, n.stacked = nil, nil, false
	c.passive.Add(-1)
}

// Stats returns the inner lock's counters plus the layer's own.
func (c *crLock) Stats() core.Snapshot {
	s := c.stats.Read()
	if c.in != nil {
		s = s.Add(c.in.Stats())
	}
	return s
}

var _ ContextMutex = (*crLock)(nil)
