package policy

import (
	"strings"

	"repro/internal/core"
	"repro/lock"
	"repro/shard"
)

func init() {
	Register(Registration{
		Name:    "slo",
		Summary: "defends a deadline-miss budget with two-window burn rates: demotes to hot= when both burn hot, restores on sustained calm; target=/fast=/slow=/min=",
		Build: func(opts ...Option) Policy {
			cfg := resolve(opts)
			return &slo{
				target: cfg.sloTarget,
				fast:   cfg.sloFast,
				slow:   cfg.sloSlow,
				min:    cfg.sloMin,
				hot:    cfg.hotLock,
				st:     make(map[int]*sloState),
			}
		},
	})
}

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

// slo steers each stripe by the objective itself instead of a mechanism
// proxy such as a park count, whose meaning a change of waiting policy
// can silently invert: slo watches the deadline-miss rate the service
// actually promised to keep
// (StripeSnapshot.DeadlineAttempts/DeadlineMisses) and reconfigures the
// stripe's lock when the budget is burning. The alerting logic is the
// SRE two-window burn-rate pattern, adapted from paging humans to
// swapping locks:
//
//   - Each non-idle controller interval (one with at least one
//     deadline-bounded arrival) contributes a (misses, attempts) sample
//     to a ring of the last slow samples. Idle intervals contribute
//     nothing — evidence is retained, not diluted, across lulls.
//   - A window's burn rate is the mean of its intervals' miss rates —
//     each interval weighs the same, however much traffic it carried.
//     Pooling the raw counters instead would weight by volume, and the
//     paper's failure mode is exactly a volume cliff: a collapsing
//     stripe serves a fraction of its healthy throughput, so a pooled
//     slow window lets the healthy history's attempt count bury a storm
//     that is missing nearly every deadline it sees. Per-interval means
//     make the windows measure time spent burning, not traffic spent
//     burning.
//   - Demote — swap the stripe's lock to the culling/passivating hot=
//     spec — when the burn rate is at or above target over BOTH windows:
//     the fast window (last fast samples) says the budget is burning
//     *now*, the slow window (all retained samples) says it is not a
//     one-interval blip. At storm onset on a fresh stripe the two
//     windows coincide, so the demotion lands within fast intervals —
//     the fast window is the reaction-time bound; against a full calm
//     ring the slow window concedes after ~target·slow further storm
//     intervals.
//   - Restore the original spec when the burn rate is at or below
//     target/2 over both windows AND the slow window consists entirely
//     of post-demotion samples. The halved re-entry band is a
//     hysteresis (a rate between target/2 and target neither demotes
//     nor restores); the full-window requirement is the stronger half:
//     post-demotion calm intervals drag the slow mean under the band
//     while storm samples are still in the ring, and a rate-only rule
//     would restore mid-incident on that decay (then promptly re-demote
//     — flapping). Demanding slow consecutive intervals of
//     post-demotion evidence makes "sustained calm" mean sustained.
//
// Both decisions also require the fast window to hold at least min
// deadline-bounded attempts: a near-idle stripe's single missed op is
// not a 100% burn rate, in either direction.
//
// The miss counters survive Reconfigure by design (they belong to the
// stripe, not the lock), so the policy reads one coherent series across
// its own swaps.
type slo struct {
	target float64
	fast   int
	slow   int
	min    uint64
	hot    string
	st     map[int]*sloState
}

type sloSample struct{ misses, attempts uint64 }

type sloState struct {
	orig        string // lock spec to restore on recovery
	demoted     bool
	sinceDemote int // non-idle intervals observed since the demotion

	ring []sloSample // last slow non-idle intervals
	head int         // next write position
	n    int         // filled
}

func (s *sloState) push(misses, attempts uint64) {
	s.ring[s.head] = sloSample{misses, attempts}
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	if s.demoted {
		s.sinceDemote++
	}
}

// tail reports the most recent k samples (all retained samples when k
// exceeds the fill) as a burn rate — the mean of the intervals'
// individual miss rates — plus the pooled attempt count for the min=
// evidence floor. Every retained sample is non-idle, so the per-interval
// rates are always well defined.
func (s *sloState) tail(k int) (rate float64, attempts uint64) {
	if k > s.n {
		k = s.n
	}
	if k == 0 {
		return 0, 0
	}
	for i := 1; i <= k; i++ {
		smp := s.ring[(s.head-i+len(s.ring))%len(s.ring)]
		rate += float64(smp.misses) / float64(smp.attempts)
		attempts += smp.attempts
	}
	return rate / float64(k), attempts
}

func (p *slo) state(i int) *sloState {
	s := p.st[i]
	if s == nil {
		s = &sloState{ring: make([]sloSample, p.slow)}
		p.st[i] = s
	}
	return s
}

func (p *slo) Decide(prev, cur shard.StripeSnapshot) (lockSpec, backendSpec string, swap bool) {
	if p.target <= 0 {
		return "", "", false
	}
	s := p.state(cur.Index)
	if s.demoted && !sameLock(cur.LockSpec, p.hot) {
		// The demotion never landed, or another actor swapped the lock
		// since. Resync to the observed state (scanaware's rule too); the
		// ring keeps its evidence — the miss series is about the stripe,
		// not about what we believed we did to it.
		s.demoted = false
	}
	dAttempts := core.SatSub(cur.DeadlineAttempts, prev.DeadlineAttempts)
	dMisses := core.SatSub(cur.DeadlineMisses, prev.DeadlineMisses)
	if dAttempts == 0 {
		// Idle interval: no deadline-bounded traffic, no evidence either
		// way. The ring is left alone so a lull neither ages out a storm
		// nor manufactures calm.
		return "", "", false
	}
	s.push(dMisses, dAttempts)
	if s.n < p.fast {
		return "", "", false
	}
	fastRate, fAttempts := s.tail(p.fast)
	if fAttempts < p.min {
		return "", "", false
	}
	slowRate, _ := s.tail(p.slow)
	if !s.demoted {
		if sameLock(cur.LockSpec, p.hot) {
			// Already running the hot lock (configured that way, possibly
			// with tuned parameters): a demotion would discard those
			// parameters and churn the queue for nothing.
			return "", "", false
		}
		if fastRate >= p.target && slowRate >= p.target {
			s.orig = cur.LockSpec
			s.demoted = true
			s.sinceDemote = 0
			return p.hot, "", true
		}
		return "", "", false
	}
	if s.sinceDemote >= p.slow && fastRate <= p.target/2 && slowRate <= p.target/2 {
		s.demoted = false
		return s.orig, "", true
	}
	return "", "", false
}
