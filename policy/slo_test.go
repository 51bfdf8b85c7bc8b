package policy

import (
	"testing"

	"repro/shard"
)

// sloSnap builds a scripted stripe snapshot carrying the cumulative
// deadline counters the slo policy reads.
func sloSnap(idx int, lockSpec string, attempts, misses uint64) shard.StripeSnapshot {
	return shard.StripeSnapshot{
		Index:    idx,
		LockSpec: lockSpec,
		Counters: shard.Counters{DeadlineAttempts: attempts, DeadlineMisses: misses},
	}
}

// sloScript drives a policy with per-interval (attempts, misses) deltas
// against cumulative snapshots, returning the decisions.
type sloScript struct {
	p        Policy
	lockSpec string
	attempts uint64
	misses   uint64
	prev     shard.StripeSnapshot
}

func newSLOScript(p Policy, lockSpec string) *sloScript {
	return &sloScript{p: p, lockSpec: lockSpec, prev: sloSnap(0, lockSpec, 0, 0)}
}

func (s *sloScript) interval(dAttempts, dMisses uint64) (string, string, bool) {
	s.attempts += dAttempts
	s.misses += dMisses
	cur := sloSnap(0, s.lockSpec, s.attempts, s.misses)
	ls, bs, swap := s.p.Decide(s.prev, cur)
	s.prev = cur
	return ls, bs, swap
}

func TestSLOSpec(t *testing.T) {
	for _, good := range []string{
		"slo",
		"slo?target=0.1&fast=2&slow=8&min=4",
		"slo?hot=lifocr",
	} {
		if _, err := New(good); err != nil {
			t.Fatalf("New(%q): %v", good, err)
		}
	}
	for _, bad := range []string{
		"slo?target=1.5",
		"slo?fast=0",
		"slo?slow=x",
		"slo?min=-1",
		"slo?hot=no-such-lock",
	} {
		if _, err := New(bad); err == nil {
			t.Fatalf("New(%q) accepted", bad)
		}
	}
}

// TestSLODemotesWithinFastWindow: a storm on a fresh stripe must demote
// as soon as the fast window fills — the fast window is the reaction-
// time bound — and to the hot= lock spec, lock only.
func TestSLODemotesWithinFastWindow(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.25&fast=3&slow=12&min=1"), "mcs-stp")
	for i := 0; i < 2; i++ {
		if _, _, swap := s.interval(100, 50); swap {
			t.Fatalf("demoted at interval %d, before the fast window filled", i)
		}
	}
	ls, bs, swap := s.interval(100, 50)
	if !swap || ls != DefaultHotLockSpec || bs != "" {
		t.Fatalf("interval 2: Decide = %q, %q, %v want %q, \"\", true", ls, bs, swap, DefaultHotLockSpec)
	}
}

// TestSLOFastWindowAloneDoesNotDemote: a stripe with a long calm history
// that spikes for a couple of intervals burns hot on the fast window
// only — the calm slow window vetoes the demotion until the storm
// proves itself against the whole retained history.
func TestSLOFastWindowAloneDoesNotDemote(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.25&fast=3&slow=12&min=1"), "mcs-stp")
	for i := 0; i < 9; i++ {
		if _, _, swap := s.interval(100, 0); swap {
			t.Fatalf("demoted a calm stripe at interval %d", i)
		}
	}
	// Two storm intervals: the fast window's mean rate is 1/3 >= 0.25,
	// the slow window's (two 0.5 intervals among nine calm) is ~0.09 —
	// fast-only, no demote.
	for i := 0; i < 2; i++ {
		if ls, _, swap := s.interval(100, 50); swap {
			t.Fatalf("fast-window-only burn demoted (interval %d, %q)", i, ls)
		}
	}
	// A sustained storm eventually carries the slow window too.
	demoted := false
	for i := 0; i < 12 && !demoted; i++ {
		_, _, demoted = s.interval(100, 50)
	}
	if !demoted {
		t.Fatal("sustained storm never demoted")
	}
}

// TestSLOVolumeCliff: the windows weight intervals by time, not traffic.
// A collapse cuts a stripe's throughput along with its SLO, so a storm's
// few hundred attempts must not be buried under a calm history carrying
// thousands — the demotion lands a bounded number of storm intervals in,
// however lopsided the volumes.
func TestSLOVolumeCliff(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.25&fast=3&slow=12&min=1"), "mcs-stp")
	// A full slow window of heavy, perfectly healthy traffic...
	for i := 0; i < 12; i++ {
		s.interval(100000, 0)
	}
	// ...then a collapse: ~10 attempts per interval, nearly all missed.
	// Pooled counters would need the calm million to roll out of the ring
	// before the slow window burned; with per-interval means the slow
	// window concedes once storm intervals are ~target·slow of the ring —
	// 0.9k/12 >= 0.25 at the fourth storm interval (index 3).
	demotedAt := -1
	for i := 0; i < 12 && demotedAt < 0; i++ {
		if _, _, swap := s.interval(10, 9); swap {
			demotedAt = i
		}
	}
	if demotedAt != 3 {
		t.Fatalf("volume cliff demoted at storm interval %d, want 3", demotedAt)
	}
}

// TestSLOReentryBandNoFlap: a demoted stripe whose miss rate sits inside
// the hysteresis band (above target/2, below target) must stay demoted —
// the band is sticky in both directions.
func TestSLOReentryBandNoFlap(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.2&fast=3&slow=6&min=1"), "mcs-stp")
	s.interval(100, 50)
	s.interval(100, 50)
	if _, _, swap := s.interval(100, 50); !swap {
		t.Fatal("setup: storm did not demote")
	}
	s.lockSpec = DefaultHotLockSpec // the swap landed
	// Band intervals: rate 0.15, inside (0.1, 0.2) — no restore, ever.
	for i := 0; i < 30; i++ {
		if ls, _, swap := s.interval(100, 15); swap {
			t.Fatalf("swapped inside the re-entry band at interval %d (%q)", i, ls)
		}
	}
	// True calm drains the slow window and restores the original spec —
	// exactly once; the calm-filled ring must not re-demote after.
	restored := false
	for i := 0; i < 20; i++ {
		ls, _, swap := s.interval(100, 0)
		if swap && restored {
			t.Fatalf("second swap after restore at interval %d (%q)", i, ls)
		}
		if swap {
			if ls != "mcs-stp" {
				t.Fatalf("restore Decide = %q want original mcs-stp", ls)
			}
			restored = true
			s.lockSpec = "mcs-stp"
		}
	}
	if !restored {
		t.Fatal("sustained calm never restored")
	}
}

// TestSLOIdleIntervalsRetainEvidence: a lull with no deadline-bounded
// traffic must neither age out storm evidence nor manufacture calm.
func TestSLOIdleIntervalsRetainEvidence(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.25&fast=3&slow=12&min=1"), "mcs-stp")
	// Two storm intervals (one short of the fast window)...
	s.interval(100, 50)
	s.interval(100, 50)
	// ...then a long idle lull: no decisions, no evidence decay.
	for i := 0; i < 10; i++ {
		if ls, _, swap := s.interval(0, 0); swap {
			t.Fatalf("swapped on an idle interval %d (%q)", i, ls)
		}
	}
	// The next storm interval completes the fast window and demotes.
	ls, _, swap := s.interval(100, 50)
	if !swap || ls != DefaultHotLockSpec {
		t.Fatalf("idle lull decayed storm evidence: %q, %v", ls, swap)
	}

	// Symmetrically: a demoted stripe stays demoted across a lull (idle
	// intervals are not calm evidence).
	s.lockSpec = DefaultHotLockSpec
	for i := 0; i < 20; i++ {
		if ls, _, swap := s.interval(0, 0); swap {
			t.Fatalf("idle interval %d restored (%q)", i, ls)
		}
	}
}

// TestSLOMinAttemptsFloor: a near-idle stripe's few missed ops are not a
// burn rate — below the min= evidence floor the policy must not act.
func TestSLOMinAttemptsFloor(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0.25&fast=3&slow=12&min=30"), "mcs-stp")
	// 100% miss rate but only 3 attempts per interval: 9 < 30 in the
	// fast window — no demotion.
	for i := 0; i < 10; i++ {
		if ls, _, swap := s.interval(3, 3); swap {
			t.Fatalf("demoted below the evidence floor at interval %d (%q)", i, ls)
		}
	}
	// Real traffic at the same rate clears the floor and demotes.
	demoted := false
	for i := 0; i < 3 && !demoted; i++ {
		_, _, demoted = s.interval(100, 100)
	}
	if !demoted {
		t.Fatal("did not demote once the evidence floor cleared")
	}
}

// TestSLODisabledAndAlreadyHot: target=0 disables the policy; a stripe
// already running the hot lock is left alone however hot it burns.
func TestSLODisabledAndAlreadyHot(t *testing.T) {
	s := newSLOScript(MustNew("slo?target=0&fast=1&min=1"), "mcs-stp")
	for i := 0; i < 10; i++ {
		if _, _, swap := s.interval(100, 100); swap {
			t.Fatalf("target=0 swapped at interval %d", i)
		}
	}
	hot := newSLOScript(MustNew("slo?target=0.1&fast=1&min=1"), "mcscr-stp?fairness=500")
	for i := 0; i < 10; i++ {
		if _, _, swap := hot.interval(100, 100); swap {
			t.Fatalf("swapped a stripe already on the hot lock at interval %d", i)
		}
	}
}
