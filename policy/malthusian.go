package policy

import (
	"strings"

	"repro/lock"
	"repro/shard"
)

// sameLock reports whether two lock specs name the same registered lock,
// ignoring parameters and resolving aliases: "mcscr-stp?fairness=500" is
// the same lock as "mcscr-stp". Unregistered names fall back to a
// case-insensitive name comparison.
func sameLock(a, b string) bool {
	return lockName(a) == lockName(b)
}

func lockName(spec string) string {
	name, _, _ := strings.Cut(spec, "?")
	if reg, ok := lock.Lookup(name); ok {
		return reg.Name
	}
	return strings.ToLower(strings.TrimSpace(name))
}

func init() {
	Register(Registration{
		Name:    "malthusian",
		Summary: "demotes a collapsing stripe's lock to a culling spec (hot=), restores it when calm; lwss=/parks=/hold=",
		Build: func(opts ...Option) Policy {
			cfg := resolve(opts)
			return &malthusian{
				lwss:  cfg.lwss,
				parks: cfg.parks,
				hold:  cfg.hold,
				hot:   cfg.hotLock,
				st:    make(map[int]*malthusianState),
			}
		},
	})
}

// malthusian is the paper's admission-policy thesis applied one level
// up: when a stripe's observed contention says its lock is collapsing —
// a park storm per interval, or a recent working set wider than the
// stripe can serve — demote the stripe to a culling/passivating lock
// spec (MCSCR by default), which restricts the working set the way §3 of
// the paper restricts the ACS. When the stripe calms down, restore the
// spec it was built with.
//
// Signals, per stripe, per controller interval:
//
//   - parks rate: cur.Lock.Parks - prev.Lock.Parks >= parks (voluntary
//     context switching is the paper's collapse symptom; 0 disables).
//   - recent working set: cur.Fairness.RecentLWSS >= lwss (needs a
//     history-recording map, Config.HistoryCap > 0; 0 disables). A
//     capped history freezes this signal once full — size HistoryCap for
//     the run length, or rely on the parks trigger.
//
// Either signal sustained for hold consecutive intervals demotes; both
// signals clear — parks rate at or below half the threshold, recent
// working set strictly below lwss — for hold consecutive intervals
// restores. The half-threshold re-entry band plus the hold depth is the
// hysteresis: a stripe oscillating around the threshold swaps at most
// once per hold intervals in the worst case, and a borderline stripe
// that never sustains a signal never swaps at all.
type malthusian struct {
	lwss  float64
	parks uint64
	hold  int
	hot   string
	st    map[int]*malthusianState
}

type malthusianState struct {
	orig     string // lock spec to restore on recovery
	hotRuns  int
	calmRuns int
	demoted  bool
}

func (p *malthusian) state(i int) *malthusianState {
	s := p.st[i]
	if s == nil {
		s = &malthusianState{}
		p.st[i] = s
	}
	return s
}

func (p *malthusian) Decide(prev, cur shard.StripeSnapshot) (lockSpec, backendSpec string, swap bool) {
	s := p.state(cur.Index)
	if s.demoted && !sameLock(cur.LockSpec, p.hot) {
		// The demotion never landed (Reconfigure failed, or another
		// actor swapped the lock since). Resync to the observed state
		// and keep watching, rather than believing a swap that did not
		// happen for the rest of the run.
		s.demoted = false
		s.hotRuns, s.calmRuns = 0, 0
	}
	dParks := cur.Lock.Sub(prev.Lock).Parks
	parksHot := p.parks > 0 && dParks >= p.parks
	lwssHot := p.lwss > 0 && cur.Fairness.RecentLWSS >= p.lwss
	if !s.demoted {
		if sameLock(cur.LockSpec, p.hot) {
			// Already running the hot lock (configured that way —
			// possibly with tuned parameters — or swapped by someone
			// else): a demotion would discard those parameters and
			// churn the queue for nothing.
			s.hotRuns, s.calmRuns = 0, 0
			return "", "", false
		}
		if parksHot || lwssHot {
			s.hotRuns++
		} else {
			s.hotRuns = 0
		}
		if s.hotRuns >= p.hold {
			s.orig = cur.LockSpec
			s.demoted = true
			s.hotRuns, s.calmRuns = 0, 0
			return p.hot, "", true
		}
		return "", "", false
	}
	parksCalm := p.parks == 0 || dParks <= p.parks/2
	lwssCalm := p.lwss == 0 || cur.Fairness.RecentLWSS < p.lwss
	if parksCalm && lwssCalm {
		s.calmRuns++
	} else {
		s.calmRuns = 0
	}
	if s.calmRuns >= p.hold {
		s.demoted = false
		s.hotRuns, s.calmRuns = 0, 0
		return s.orig, "", true
	}
	return "", "", false
}
