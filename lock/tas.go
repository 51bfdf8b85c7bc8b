package lock

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
)

// TAS is a test-and-set spin lock with competitive succession and global
// spinning (§5.3, §5.4, Appendix A.1). Arriving threads may barge ahead of
// threads that have waited longer: bypass is unbounded and admission order
// is decoupled from arrival order. The polling loop is the polite
// test-and-test-and-set form with randomized exponential backoff, which
// reduces the thundering-herd coherence storm at release.
//
// TAS never hands the lock to a preempted thread (the acquirer is running
// by definition), the property that makes TAS-family locks robust under
// multiprogramming (§7, Appendix A.1).
//
// The zero value is a valid, unlocked, uninstrumented TAS (nil stats);
// packages condvar and semaphore embed it this way as their internal
// latch. NewTAS attaches striped stats unless WithStats(false) is given.
type TAS struct {
	// word is the globally-spun-on lock word; it lives alone on its cache
	// line so waiter polling does not collide with the stats reference.
	//
	//lockcheck:lockword
	word atomic.Uint32
	_    [pad.CacheLineSize - 4]byte

	stats *core.Stats
}

// NewTAS returns an unlocked TAS lock. Options other than WithStats are
// accepted for interface symmetry; TAS has no CR policy knobs.
func NewTAS(opts ...Option) *TAS {
	cfg := buildConfig(opts)
	return &TAS{stats: cfg.newStats()}
}

func init() {
	Register(Registration{
		Name:    "tas",
		Aliases: []string{"ttas"},
		Summary: "test-and-set baseline: barging, global spinning, randomized backoff",
		Build:   func(opts ...Option) Mutex { return NewTAS(opts...) },
	})
}

// Lock acquires the lock, spinning with randomized backoff.
//
//lockcheck:acquires l
func (l *TAS) Lock() {
	if l.word.CompareAndSwap(0, 1) {
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return
	}
	l.lockSlow(nil)
}

// LockContext is Lock with cancellation. TAS waiters hold no queue slot,
// so abandoning is trivial: the polling loop simply stops.
//
//lockcheck:acquires l
func (l *TAS) LockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		l.stats.Inc(core.EvCancels)
		return err
	}
	if l.word.CompareAndSwap(0, 1) {
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return nil
	}
	return l.lockSlow(ctx)
}

// lockSlow is the contended path shared by Lock and LockContext; a nil
// ctx, or one whose Done() — first asked for here — is nil, waits
// indefinitely. Test-and-test-and-set: poll with plain loads first so
// waiting threads share the line in read state instead of ping-ponging
// it; the poll is bounded per round so the context is observed between
// backoff rounds.
//
//lockcheck:acquires l
func (l *TAS) lockSlow(ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	b := newBackoff(nextSeed())
	for {
		for i := 0; l.word.Load() != 0 && i < maxBackoff; i++ {
			politePause(i)
		}
		if l.word.CompareAndSwap(0, 1) {
			l.stats.Inc2(core.EvSlowPath, core.EvAcquires)
			return nil
		}
		if done != nil {
			select {
			case <-done:
				l.stats.Inc(core.EvCancels)
				return ctx.Err()
			default:
			}
		}
		b.pause()
	}
}

// TryLock acquires the lock if it is free.
//
//lockcheck:acquires l
func (l *TAS) TryLock() bool {
	if l.word.Load() == 0 && l.word.CompareAndSwap(0, 1) {
		l.stats.Inc2(core.EvFastPath, core.EvAcquires)
		return true
	}
	return false
}

// Unlock releases the lock (competitive succession / renouncement: the
// lock is simply made available and the waiters race to claim it).
//
//lockcheck:cs
func (l *TAS) Unlock() {
	if l.word.Swap(0) != 1 {
		panic("lock: TAS.Unlock of unlocked mutex")
	}
}

// Stats returns a snapshot of the lock's event counters.
func (l *TAS) Stats() core.Snapshot { return l.stats.Read() }

var _ ContextMutex = (*TAS)(nil)
