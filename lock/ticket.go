package lock

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
)

// Ticket is a classic FIFO ticket lock: arriving threads take the next
// ticket and spin globally until the grant counter reaches it (§5.4 notes
// ticket locks as the counter-example of a direct-handoff lock without an
// explicit waiter list). Waiting uses proportional backoff: a thread k
// positions from the head polls less aggressively than the next-in-line.
//
// Ticket locks are strictly FIFO and hence maximally exposed to the
// scalability collapse the paper studies: every circulating thread is
// admitted in turn, so the lock working set equals the thread count.
type Ticket struct {
	next  atomic.Uint64
	_     [pad.CacheLineSize - 8]byte // keep ticket and grant counters apart
	serve atomic.Uint64
	_     [pad.CacheLineSize - 8]byte
	stats *core.Stats
}

// NewTicket returns an unlocked ticket lock.
func NewTicket(opts ...Option) *Ticket {
	cfg := buildConfig(opts)
	return &Ticket{stats: cfg.newStats()}
}

func init() {
	Register(Registration{
		Name:    "ticket",
		Summary: "ticket lock baseline: strict FIFO, global spinning, proportional backoff",
		Build:   func(opts ...Option) Mutex { return NewTicket(opts...) },
	})
}

// Lock takes a ticket and waits for it to be served.
func (l *Ticket) Lock() {
	t := l.next.Add(1) - 1
	for i := 0; ; i++ {
		s := l.serve.Load()
		if s == t {
			break
		}
		// Proportional backoff: poll politely once per position in line.
		for j := 0; j < int(t-s); j++ {
			politePause(j)
		}
		politePause(i)
	}
	l.stats.Inc2(core.EvAcquires, core.EvHandoffs)
}

// LockContext is Lock with cancellation — with a deliberate semantic
// trade: a ticket, once drawn, MUST eventually be served or every later
// ticket stalls forever, so a cancellable acquirer cannot join the FIFO
// line. Instead it polls and draws a ticket only at the moment the ticket
// would be served immediately (serve == next, claimed by CAS). Cancellable
// Ticket acquisition is therefore competitive succession, not FIFO: it can
// be bypassed by plain Lock callers and does not inherit the ticket lock's
// fairness guarantee. See DESIGN.md.
//
//lockcheck:acquires l
func (l *Ticket) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	if l.TryLock() {
		return nil
	}
	// About to wait: a context that can never be cancelled may as well
	// take a ticket.
	done := ctx.Done()
	if done == nil {
		l.Lock()
		return nil
	}
	for i := 0; ; i++ {
		s := l.serve.Load()
		if n := l.next.Load(); s == n && l.next.CompareAndSwap(n, n+1) {
			l.stats.Inc2(core.EvAcquires, core.EvSlowPath)
			return nil
		}
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			select {
			case <-done:
				l.stats.Inc(core.EvCancels)
				return ctx.Err()
			default:
			}
		}
		politePause(i)
	}
}

// TryLock acquires the lock only if no other thread holds or awaits it.
func (l *Ticket) TryLock() bool {
	s := l.serve.Load()
	n := l.next.Load()
	if s != n {
		return false
	}
	if l.next.CompareAndSwap(n, n+1) {
		l.stats.Inc2(core.EvAcquires, core.EvFastPath)
		return true
	}
	return false
}

// Unlock serves the next ticket (direct handoff by counter increment).
//
//lockcheck:cs
func (l *Ticket) Unlock() {
	l.serve.Add(1)
}

// Stats returns a snapshot of the lock's event counters.
func (l *Ticket) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*Ticket)(nil)
