package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Policy decides, stripe by stripe, whether a stripe's observed behaviour
// warrants moving it to another backend. It is the control-plane contract
// the policy package's registry implementations satisfy ("static",
// "scanaware"); the decision function consumes exactly what the map
// observes. Admission is not a policy's to change: a stripe keeps the lock
// New built for it, and a culling lock adapts to contention by itself.
type Policy interface {
	// Decide inspects one stripe's previous and current snapshots — one
	// controller interval apart — and returns the backend spec to
	// reconfigure the stripe to. swap=false means leave the stripe alone
	// (the spec is then ignored); an empty spec keeps the current
	// backend, exactly as Map.Reconfigure documents.
	//
	// Decide is always called from a single goroutine (the controller
	// loop), for every stripe, every interval, in stripe order — an
	// implementation may keep per-stripe state (hysteresis counters, the
	// spec to restore) without synchronization. Counters in the
	// snapshots are cumulative; subtract (core.Snapshot.Sub) for rates.
	//
	// The controller's snapshots are lite: Fairness carries only
	// Admissions and RecentLWSS (a walk of the trailing HistoryWindow
	// admissions, taken outside the stripe lock); the O(history)-and-worse
	// instruments (AvgLWSS, MTTR, Gini, RSTDDEV) read zero, because
	// recomputing them per stripe per tick would cost the data plane
	// more than any decision could win back. Policies must key on those
	// two and the counter deltas.
	Decide(prev, cur StripeSnapshot) (backendSpec string, swap bool)
}

// DefaultControllerInterval is the snapshot cadence when StartController
// is given a nonpositive interval.
const DefaultControllerInterval = 50 * time.Millisecond

// Controller drives a Policy against a live Map: every interval it
// snapshots the map, offers each stripe's (previous, current) snapshot
// pair to the policy, and applies the swaps the policy asks for via
// Map.Reconfigure. Construct with StartController.
type Controller struct {
	m        *Map
	pol      Policy
	interval time.Duration

	cancel   context.CancelFunc
	done     chan struct{}
	stopOnce sync.Once

	swaps     atomic.Uint64
	rejected  atomic.Uint64
	lastDelta atomic.Pointer[SnapshotDelta]
}

// StartController launches a controller goroutine adapting m under pol
// every interval (nonpositive means DefaultControllerInterval). The
// controller runs until ctx is cancelled or Stop is called. The first
// decision happens one full interval after the start — the controller
// needs two snapshots before rates exist.
//
// The controller's own snapshots take each stripe lock briefly (the
// Snapshot protocol), and an applied swap quiesces the stripe it
// reconfigures — the control plane shares the data plane's locks by
// design, so pick an interval that amortizes that cost (the default is a
// comfortable 50ms). On a history-recording map the lite snapshot also
// walks each stripe's trailing Config.HistoryWindow admissions for
// RecentLWSS, after the stripe lock is released.
func StartController(ctx context.Context, m *Map, pol Policy, interval time.Duration) *Controller {
	if interval <= 0 {
		interval = DefaultControllerInterval
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &Controller{
		m:        m,
		pol:      pol,
		interval: interval,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	go c.run(cctx)
	return c
}

// Stop halts the controller and waits for its loop to exit; it is
// idempotent and safe to call concurrently with ctx cancellation.
func (c *Controller) Stop() {
	c.stopOnce.Do(c.cancel)
	<-c.done
}

// Swaps returns how many reconfigurations the controller has applied.
func (c *Controller) Swaps() uint64 { return c.swaps.Load() }

// Rejected returns how many policy decisions Map.Reconfigure refused
// (a policy returning a malformed spec fails safe: the stripe is left
// untouched and the rejection counted here).
func (c *Controller) Rejected() uint64 { return c.rejected.Load() }

// LastDelta returns the most recent per-interval delta the controller
// computed (Snapshot.Sub of its last two snapshots), or a zero delta
// before the first interval completes. It is the controller's view of
// the map's rates, exposed for dashboards and tests.
func (c *Controller) LastDelta() SnapshotDelta {
	if d := c.lastDelta.Load(); d != nil {
		return *d
	}
	return SnapshotDelta{}
}

//lockcheck:nosnapshot
func (c *Controller) run(ctx context.Context) {
	defer close(c.done)
	// Snapshots ride the controller's ctx so cancellation (Stop) is
	// honored even while a tick waits behind a stripe mid-migration; a
	// failed snapshot is the loop exiting, not a decision input.
	prev, err := c.m.SnapshotLite(ctx)
	if err != nil {
		return
	}
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cur, err := c.m.SnapshotLite(ctx)
		if err != nil {
			return
		}
		delta := cur.Sub(prev)
		c.lastDelta.Store(&delta)
		for i := range cur.Stripes {
			backendSpec, swap := c.pol.Decide(prev.Stripes[i], cur.Stripes[i])
			if !swap {
				continue
			}
			// reconfigure (not Reconfigure) reports whether a swap was
			// actually applied: a decision whose specs already match the
			// stripe's is a validated no-op and must not inflate Swaps.
			applied, err := c.m.reconfigure(i, backendSpec)
			if err != nil {
				c.rejected.Add(1)
				continue
			}
			if applied {
				c.swaps.Add(1)
			}
		}
		// The pre-swap snapshot becomes the baseline: the next interval's
		// deltas then include the swap's own effects (the migration's
		// stripe acquisition), which is what the policy's hysteresis is
		// sized to absorb.
		prev = cur
	}
}
