package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// frameCtx is the one deadline context a connection re-points at each
// deadlined frame (reset), instead of building a context.WithDeadline —
// context, timer and cancel closure — per frame. A frame pays for what
// its callees use: Deadline and Value are field reads, Err compares the
// deadline with the frame's receipt time (see below), and only the first
// Done of a frame — a callee about to wait — makes the channel and arms
// the connection's one timer. A frame served without waiting allocates
// nothing, touches no timer and reads no clock.
//
// The receipt time is the conn loop's one clock reading per trip to the
// socket, shared by every frame that trip delivered. Until a callee asks
// for Done, Err measures the deadline against that reading: a frame that
// arrived with budget left is live, and a frame that arrived expired
// (wire.ExpiredBudget) fails at once. A frame whose callee never waits
// therefore runs on the budget it arrived with, the way a lock handoff
// that races a deadline wins. Once Done has been asked, Err and the
// channel follow the clock.
//
// Within a frame it is a context.Context like any other, safe for use by
// several goroutines. Across frames it is not: reset drops the channel
// the last frame handed out, so no callee may retain the context, or a
// context derived from it, past its own return. Every callee below
// serveConn (shard, lock, park) is synchronous, which is what makes one
// context per connection sound.
type frameCtx struct {
	// Written by reset, read-only while a frame is being served.
	parent   context.Context // the frame's classCtx entry: Value forwards here
	receipt  time.Time       // the clock reading of the socket read that delivered the frame
	deadline time.Time       // absolute: receipt plus the frame's budget (monotonic)

	// asked is set by the frame's first Done: the one thing reset reads
	// to learn, without the mutex, that there is nothing to undo.
	asked atomic.Bool

	mu sync.Mutex
	// done is this frame's channel; nil until a callee asks for it.
	//
	//lockcheck:guardedby mu
	done chan struct{}
	// closed reports that done has been closed (or is closedChan).
	//
	//lockcheck:guardedby mu
	closed bool
	// timer is the connection's one reusable timer, made by the first
	// Done that has to arm it.
	//
	//lockcheck:guardedby mu
	timer *time.Timer
}

// closedChan is what Done returns for a frame whose deadline had already
// passed when it was asked: no channel to make, no timer to arm.
var closedChan = make(chan struct{})

func init() { close(closedChan) }

// reset re-points the context at the next frame. Only the connection's
// goroutine calls it, between frames, when no callee is running.
//
// A timer callback that Stop came too late for may still run during a
// later frame. It cannot close that frame's channel early: fire closes
// only a channel whose own deadline has passed. Nor does it race with
// the unlocked write of deadline below: fire reads deadline only after
// seeing done != nil under mu, and a frame with done != nil has asked set,
// so the next write of deadline waits behind the locked section.
func (c *frameCtx) reset(parent context.Context, receipt time.Time, budget time.Duration) {
	if c.asked.Load() {
		c.mu.Lock()
		if c.timer != nil {
			c.timer.Stop()
		}
		c.done, c.closed = nil, false
		c.mu.Unlock()
		c.asked.Store(false)
	}
	c.parent, c.receipt, c.deadline = parent, receipt, receipt.Add(budget)
}

func (c *frameCtx) expired() bool { return !time.Now().Before(c.deadline) }

// closeLocked closes the frame's channel, if it has one still open.
//
//lockcheck:holds c.mu
func (c *frameCtx) closeLocked() {
	if c.done != nil && !c.closed {
		close(c.done)
		c.closed = true
	}
}

// fire is the timer callback.
func (c *frameCtx) fire() {
	c.mu.Lock()
	if c.done != nil && c.expired() {
		c.closeLocked()
	}
	c.mu.Unlock()
}

func (c *frameCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *frameCtx) Value(key any) any { return c.parent.Value(key) }

// Err compares the deadline with the receipt time until Done has been
// asked, and with the clock after that. Past the deadline it also closes
// a channel already handed out, so Done is closed whenever Err is
// non-nil even if the timer's goroutine has not run yet; and a channel
// Done has closed was asked for, so Err reads the clock and is non-nil.
func (c *frameCtx) Err() error {
	if c.asked.Load() {
		if !c.expired() {
			return nil
		}
	} else if c.receipt.Before(c.deadline) {
		return nil
	}
	c.mu.Lock()
	c.closeLocked()
	c.mu.Unlock()
	return context.DeadlineExceeded
}

// Done returns the frame's channel, making it on the first call: already
// closed if the deadline has passed, otherwise with the timer armed for
// what is left of the budget.
func (c *frameCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	left := time.Until(c.deadline)
	switch {
	case c.done != nil:
		if left <= 0 {
			c.closeLocked()
		}
	case left <= 0:
		c.done, c.closed = closedChan, true
	default:
		c.done = make(chan struct{})
		if c.timer == nil {
			c.timer = time.AfterFunc(left, c.fire)
		} else {
			c.timer.Reset(left)
		}
	}
	c.asked.Store(true)
	return c.done
}
