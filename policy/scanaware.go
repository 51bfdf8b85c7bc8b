package policy

import (
	"repro/internal/core"
	"repro/shard"
)

func init() {
	Register(Registration{
		Name:    "scanaware",
		Summary: "flips a scan-dominated stripe's backend to an ordered one (to=), back when scans fade; scanfrac=/hold=",
		Build: func(opts ...Option) Policy {
			cfg := resolve(opts)
			return &scanaware{
				frac: cfg.scanFrac,
				hold: cfg.hold,
				to:   cfg.ordered,
				st:   make(map[int]*scanawareState),
			}
		},
	})
}

// scanaware adapts the *storage* half of a stripe's configuration: when
// range-scan traffic dominates a stripe whose backend cannot serve it
// (the default hashmap answers every scan with ErrUnordered), flip the
// stripe to an ordered backend; when scan traffic fades, restore the
// original. It leans on the map counting scan *attempts* even when they
// are rejected — demand for order is visible before order exists.
//
// The signal, per stripe, per controller interval: the scan share
//
//	dScans / max(dAcquires, dScans)
//
// where dScans is the scan-attempt delta (map-level — every scan visits
// every stripe, and in particular acquires *this* stripe's lock once)
// and dAcquires the stripe's lock acquisition delta, so the ratio is the
// scan fraction of this stripe's traffic; with lock stats disabled the
// denominator degrades to dScans and any scan traffic reads as
// dominant. An idle interval (both deltas zero) leaves the hysteresis
// counters untouched rather than reading as calm.
//
// A share at or above scanfrac sustained for hold consecutive intervals
// flips the backend to the target; a share at or below scanfrac/2 for
// hold consecutive intervals flips it back. Flipping back surrenders
// order — subsequent scans fail with ErrUnordered until demand rebuilds
// — which is the honest cost of paying for order only while it earns
// its point-op overhead. scanfrac=0 disables the policy entirely;
// without that rule a zero threshold would read
// every interval as both hot and calm and migrate the stripe back and
// forth forever.
//
// Two sources of counter noise are filtered before they can masquerade
// as evidence: an interval with fewer than minEvidence acquisitions is
// ignored outright (the controller's own per-tick snapshot acquires
// every stripe lock, so a pure traffic lull still shows a few
// acquisitions per interval — without the floor, a lull would read as
// "calm" and restore the unordered backend, paying two O(keys)
// migrations per lull), and rejected scans are added to the denominator
// on unordered stripes (they never acquire the lock).
type scanaware struct {
	frac float64
	hold int
	to   string
	st   map[int]*scanawareState
}

type scanawareState struct {
	orig     string // backend spec to restore when scans fade
	hotRuns  int
	calmRuns int
	flipped  bool
}

func (p *scanaware) state(i int) *scanawareState {
	s := p.st[i]
	if s == nil {
		s = &scanawareState{}
		p.st[i] = s
	}
	return s
}

// minEvidence is the minimum per-interval acquisition count for an
// interval to count as evidence at all. Monitoring traffic (the
// controller's own snapshots, Len/Range sweeps) contributes a handful
// of acquisitions per interval; real request traffic contributes orders
// of magnitude more. An interval below the floor is neither hot nor
// calm — it is ignored, like the documented idle case.
const minEvidence = 16

func (p *scanaware) Decide(prev, cur shard.StripeSnapshot) (backendSpec string, swap bool) {
	if p.frac == 0 {
		// Disabled: see the type comment.
		return "", false
	}
	s := p.state(cur.Index)
	if s.flipped && cur.BackendSpec != p.to {
		// The stripe is not running our target backend: the flip never
		// landed (Reconfigure failed), or another actor installed a
		// backend of their own since. Resync to the observed
		// state rather than restore over someone else's choice; if the
		// stripe is now unordered and scans persist, the flip is simply
		// re-attempted.
		s.flipped = false
		s.hotRuns, s.calmRuns = 0, 0
	}
	// Saturating, like every delta in the module: a mis-ordered or
	// mismatched snapshot pair must read as idle, not as 2^64 scans.
	dScans := core.SatSub(cur.Scans, prev.Scans)
	dAcq := cur.Lock.Sub(prev.Lock).Acquires
	den := dAcq
	if !cur.Ordered {
		// A rejected scan never acquires the stripe lock, so on an
		// unordered stripe the attempts are NOT in dAcq — add them, or
		// the share would overestimate exactly in the pre-flip case
		// this policy exists for (and the threshold would mean
		// different things before and after a flip).
		den = dAcq + dScans
	} else if dScans > den {
		den = dScans
	}
	if den < minEvidence {
		// Idle (or monitoring-only) interval: no evidence either way.
		return "", false
	}
	share := float64(dScans) / float64(den)
	if !s.flipped {
		if cur.Ordered {
			// The stripe's backend already serves scans — whatever spec
			// it is. Flipping would be an O(keys) migration for zero
			// functional gain.
			s.hotRuns, s.calmRuns = 0, 0
			return "", false
		}
		if share >= p.frac {
			s.hotRuns++
		} else {
			s.hotRuns = 0
		}
		if s.hotRuns >= p.hold {
			s.orig = cur.BackendSpec
			s.flipped = true
			s.hotRuns, s.calmRuns = 0, 0
			return p.to, true
		}
		return "", false
	}
	if share <= p.frac/2 {
		s.calmRuns++
	} else {
		s.calmRuns = 0
	}
	if s.calmRuns >= p.hold {
		s.flipped = false
		s.hotRuns, s.calmRuns = 0, 0
		return s.orig, true
	}
	return "", false
}
