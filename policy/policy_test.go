package policy

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/lock"
	"repro/metrics"
	"repro/shard"
)

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"malthusian", "scanaware", "static"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
	if _, ok := Lookup("noop"); !ok {
		t.Fatal("alias noop did not resolve")
	}
	for _, spec := range []string{"static", "malthusian?lwss=6&parks=32&hold=3", "scanaware?scanfrac=0.25&to=rbtree", "malthusian?hot=lifocr"} {
		if _, err := New(spec); err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
	}
	for _, bad := range []struct{ spec, frag string }{
		{"no-such-policy", "unknown policy"},
		{"static?bogus=1", "unknown parameter"},
		{"malthusian?hold=0", "bad value"},
		{"malthusian?lwss=x", "bad value"},
		{"scanaware?scanfrac=1.5", "bad value"},
		{"scanaware?scanfrac=0.5&scanfrac=0.6", "given 2 times"},
		{"malthusian?hot=no-such-lock", "bad value"},
		{"scanaware?to=no-such-backend", "bad value"},
		{"scanaware?to=hashmap", "not ordered"},
	} {
		_, err := New(bad.spec)
		if err == nil {
			t.Fatalf("New(%q) accepted", bad.spec)
		}
		if !strings.Contains(err.Error(), bad.frag) {
			t.Fatalf("New(%q) error %q missing %q", bad.spec, err, bad.frag)
		}
	}
}

// plainMutex satisfies lock.Mutex but not lock.ContextMutex: the class
// of custom registration shard stripes cannot use.
type plainMutex struct{ mu sync.Mutex }

func (p *plainMutex) Lock()         { p.mu.Lock() }
func (p *plainMutex) Unlock()       { p.mu.Unlock() }
func (p *plainMutex) TryLock() bool { return p.mu.TryLock() }

// registerPlainOnce guards the test-only registration: `go test -count=2`
// reruns tests in one process, and re-registering a name panics.
var registerPlainOnce sync.Once

func TestHotSpecRequiresContextMutex(t *testing.T) {
	registerPlainOnce.Do(func() {
		lock.Register(lock.Registration{
			Name:    "plain-test-lock",
			Summary: "test-only: a Mutex without LockContext",
			Build:   func(opts ...lock.Option) lock.Mutex { return &plainMutex{} },
		})
	})
	// The parse-time contract: a hot= target the shard layer would
	// reject must fail at policy.New, not silently never swap.
	_, err := New("malthusian?hot=plain-test-lock")
	if err == nil || !strings.Contains(err.Error(), "ContextMutex") {
		t.Fatalf("New accepted a non-ContextMutex hot target: %v", err)
	}
}

func TestStatic(t *testing.T) {
	p := MustNew("static")
	hot := shard.StripeSnapshot{Index: 0, LockSpec: "tas", Counters: shard.Counters{Lock: core.Snapshot{Parks: 1 << 20}}}
	for i := 0; i < 10; i++ {
		if _, _, swap := p.Decide(shard.StripeSnapshot{}, hot); swap {
			t.Fatal("static swapped")
		}
	}
}

// snap builds a scripted stripe snapshot: cumulative parks/acquires and a
// recent working set, the signals the built-in policies read.
func snap(idx int, lockSpec, backendSpec string, parks, acquires, scans uint64, recentLWSS float64) shard.StripeSnapshot {
	return shard.StripeSnapshot{
		Index:       idx,
		LockSpec:    lockSpec,
		BackendSpec: backendSpec,
		Ordered:     backendSpec != "hashmap",
		Counters:    shard.Counters{Scans: scans, Lock: core.Snapshot{Parks: parks, Acquires: acquires}},
		Fairness:    metrics.Summary{RecentLWSS: recentLWSS},
	}
}

func TestMalthusianDemotesAndRestores(t *testing.T) {
	p := MustNew("malthusian?parks=100&lwss=8&hold=2")
	prev := snap(3, "mcs-stp", "hashmap", 0, 0, 0, 2)

	// Interval 1: park storm begins. hold=2, so no swap yet.
	cur := snap(3, "mcs-stp", "hashmap", 150, 1000, 0, 2)
	if _, _, swap := p.Decide(prev, cur); swap {
		t.Fatal("demoted after one hot interval (hold=2)")
	}
	// Interval 2: storm persists — demote to the hot spec, lock only.
	prev, cur = cur, snap(3, "mcs-stp", "hashmap", 300, 2000, 0, 2)
	ls, bs, swap := p.Decide(prev, cur)
	if !swap || ls != DefaultHotLockSpec || bs != "" {
		t.Fatalf("Decide = %q, %q, %v want %q, \"\", true", ls, bs, swap, DefaultHotLockSpec)
	}

	// Demoted. Calm intervals must persist hold times before restore.
	prev, cur = cur, snap(3, "mcscr-stp", "hashmap", 310, 2500, 0, 2) // 10 parks < 50
	if _, _, swap := p.Decide(prev, cur); swap {
		t.Fatal("restored after one calm interval")
	}
	prev, cur = cur, snap(3, "mcscr-stp", "hashmap", 320, 3000, 0, 2)
	ls, bs, swap = p.Decide(prev, cur)
	if !swap || ls != "mcs-stp" || bs != "" {
		t.Fatalf("restore Decide = %q, %q, %v want original mcs-stp", ls, bs, swap)
	}
}

func TestMalthusianLWSSTrigger(t *testing.T) {
	p := MustNew("malthusian?parks=0&lwss=8&hold=1")
	prev := snap(0, "tas", "hashmap", 0, 0, 0, 0)
	// Wide recent working set alone demotes (parks trigger disabled).
	cur := snap(0, "tas", "hashmap", 0, 1000, 0, 12)
	if ls, _, swap := p.Decide(prev, cur); !swap || ls != DefaultHotLockSpec {
		t.Fatalf("LWSS trigger: %q, %v", ls, swap)
	}
	// Working set narrows below the threshold: restore.
	prev, cur = cur, snap(0, "mcscr-stp", "hashmap", 0, 2000, 0, 3)
	if ls, _, swap := p.Decide(prev, cur); !swap || ls != "tas" {
		t.Fatalf("LWSS restore: %q, %v", ls, swap)
	}
}

// TestMalthusianNoFlapping drives a stripe that oscillates hot/calm every
// interval: with hold=2 the signal never persists, so the policy must
// never swap in either direction.
func TestMalthusianNoFlapping(t *testing.T) {
	p := MustNew("malthusian?parks=100&lwss=0&hold=2")
	var parks uint64
	prev := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			parks += 500 // hot interval
		} else {
			parks += 1 // calm interval
		}
		cur := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0)
		if ls, bs, swap := p.Decide(prev, cur); swap {
			t.Fatalf("flapped at interval %d: %q, %q", i, ls, bs)
		}
		prev = cur
	}
}

// TestMalthusianBorderlineHysteresis: a demoted stripe sitting in the
// hysteresis band (above half the threshold, below the threshold) must
// stay demoted forever — the band is sticky by design.
func TestMalthusianBorderlineHysteresis(t *testing.T) {
	p := MustNew("malthusian?parks=100&lwss=0&hold=1")
	var parks uint64
	prev := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0)
	parks += 200
	cur := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0)
	if _, _, swap := p.Decide(prev, cur); !swap {
		t.Fatal("did not demote")
	}
	for i := 0; i < 20; i++ {
		parks += 75 // in (50, 100): neither hot nor calm
		prev, cur = cur, snap(0, "mcscr-stp", "hashmap", parks, 0, 0, 0)
		if _, _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("swapped inside the hysteresis band at interval %d", i)
		}
	}
}

func TestMalthusianAlreadyHot(t *testing.T) {
	// A stripe already running the hot lock is left alone no matter how
	// collapsed it looks — including when its spec carries parameters
	// the bare hot= default lacks: demoting "mcscr-stp?fairness=500" to
	// "mcscr-stp" would discard the tuning and churn the queue.
	for _, spec := range []string{DefaultHotLockSpec, "mcscr-stp?fairness=500&seed=42"} {
		p := MustNew("malthusian?parks=10&hold=1")
		prev := snap(0, spec, "hashmap", 0, 0, 0, 64)
		cur := snap(0, spec, "hashmap", 1<<20, 1<<20, 0, 64)
		if _, _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("swapped a stripe already on the hot lock (%q)", spec)
		}
	}
}

func TestScanawareFlipsAndRestores(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=2")
	prev := snap(1, "tas", "hashmap", 0, 0, 0, 0)

	// Scan-dominated intervals (share 1.0 — scans rejected by hashmap,
	// so acquires stay 0 while attempts mount).
	cur := snap(1, "tas", "hashmap", 0, 0, 100, 0)
	if _, _, swap := p.Decide(prev, cur); swap {
		t.Fatal("flipped after one interval (hold=2)")
	}
	prev, cur = cur, snap(1, "tas", "hashmap", 0, 0, 200, 0)
	ls, bs, swap := p.Decide(prev, cur)
	if !swap || ls != "" || bs != DefaultOrderedSpec {
		t.Fatalf("flip Decide = %q, %q, %v want \"\", %q, true", ls, bs, swap, DefaultOrderedSpec)
	}

	// Scans fade (share <= 0.25 of acquisitions): restore the hashmap.
	prev = snap(1, "tas", DefaultOrderedSpec, 0, 1000, 200, 0)
	cur = snap(1, "tas", DefaultOrderedSpec, 0, 2000, 210, 0) // 10/1000
	if _, _, swap := p.Decide(prev, cur); swap {
		t.Fatal("restored after one calm interval")
	}
	prev, cur = cur, snap(1, "tas", DefaultOrderedSpec, 0, 3000, 215, 0)
	ls, bs, swap = p.Decide(prev, cur)
	if !swap || bs != "hashmap" {
		t.Fatalf("restore Decide = %q, %q, %v want hashmap back", ls, bs, swap)
	}
}

func TestScanawareIdleAndNoFlap(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=2")
	prev := snap(0, "tas", "hashmap", 0, 0, 0, 0)
	// One hot interval...
	cur := snap(0, "tas", "hashmap", 0, 0, 100, 0)
	if _, _, swap := p.Decide(prev, cur); swap {
		t.Fatal("flipped early")
	}
	// ...then idle intervals: no evidence, no decay, no flip.
	for i := 0; i < 5; i++ {
		prev, cur = cur, snap(0, "tas", "hashmap", 0, 0, 100, 0)
		if _, _, swap := p.Decide(prev, cur); swap {
			t.Fatal("flipped on an idle interval")
		}
	}
	// Evidence survives the idle gap: the next hot interval completes
	// the hold and flips.
	prev, cur = cur, snap(0, "tas", "hashmap", 0, 0, 200, 0)
	if _, bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
		t.Fatalf("idle gap decayed the signal: %q, %v", bs, swap)
	}

	// A fresh policy fed an oscillating scan share around the threshold
	// never accumulates hold consecutive hot intervals — no flip, ever.
	p2 := MustNew("scanaware?scanfrac=0.5&hold=2")
	scans, acqs := uint64(0), uint64(0)
	prev = snap(0, "tas", "hashmap", 0, 0, 0, 0)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			scans += 100 // all-scan interval
		} else {
			acqs += 1000 // all-point interval
		}
		cur = snap(0, "tas", "hashmap", 0, acqs, scans, 0)
		if _, _, swap := p2.Decide(prev, cur); swap {
			t.Fatalf("scanaware flapped at interval %d", i)
		}
		prev = cur
	}
}

// TestRejectedSwapResync: when a decided swap never lands (Map.Reconfigure
// fails, or another actor swaps first), the
// policy must resync from the observed stripe state and keep retrying
// while the signal persists — not believe its own memory of a swap that
// did not happen.
func TestRejectedSwapResync(t *testing.T) {
	// malthusian whose demotion never shows up in the stripe's spec.
	p := MustNew("malthusian?parks=10&lwss=0&hold=1&hot=tas")
	var parks uint64
	prev := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0)
	for i := 0; i < 3; i++ {
		parks += 100
		cur := snap(0, "mcs-stp", "hashmap", parks, 0, 0, 0) // swap rejected: spec unchanged
		ls, _, swap := p.Decide(prev, cur)
		if !swap || ls != "tas" {
			t.Fatalf("interval %d: Decide = %q, %v — stopped retrying after a rejected swap", i, ls, swap)
		}
		prev = cur
	}

	// scanaware whose flip never shows up either.
	ps := MustNew("scanaware?scanfrac=0.5&hold=1&to=rbtree")
	var scanned uint64
	sprev := snap(0, "tas", "hashmap", 0, 0, scanned, 0)
	for i := 0; i < 3; i++ {
		scanned += 100
		cur := snap(0, "tas", "hashmap", 0, 0, scanned, 0) // flip rejected: still unordered
		_, bs, swap := ps.Decide(sprev, cur)
		if !swap || bs != "rbtree" {
			t.Fatalf("interval %d: Decide = %q, %v — stopped retrying after a rejected flip", i, bs, swap)
		}
		sprev = cur
	}
}

// TestScanawareRejectedScansDenominator: on an unordered stripe, scan
// attempts are rejected before any lock acquisition, so they are not in
// the acquires delta; the share must still mean "scan fraction of the
// stripe's traffic" — 500 rejected scans against 1000 point ops is 1/3,
// below a 0.5 threshold, not 500/1000 = 0.5.
func TestScanawareRejectedScansDenominator(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=1")
	var scansSeen, acq uint64
	prev := snap(0, "tas", "hashmap", 0, acq, scansSeen, 0)
	for i := 0; i < 5; i++ {
		scansSeen += 500
		acq += 1000 // point ops only: rejected scans never acquired
		cur := snap(0, "tas", "hashmap", 0, acq, scansSeen, 0)
		if _, _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("interval %d: flipped at a true scan share of 1/3 (threshold 0.5)", i)
		}
		prev = cur
	}
	// At a true share of 0.6 (1500 scans vs 1000 point ops), it flips.
	scansSeen += 1500
	acq += 1000
	cur := snap(0, "tas", "hashmap", 0, acq, scansSeen, 0)
	if _, bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
		t.Fatalf("true share 0.6 did not flip: %q, %v", bs, swap)
	}
}

// TestScanawareMonitoringNoise: the controller's own per-tick snapshot
// acquires every stripe lock, so a pure traffic lull still shows a few
// acquisitions per interval. Those must not read as "calm" on a flipped
// stripe (which would restore the unordered backend and pay two O(keys)
// migrations per lull) nor reset accumulated hot evidence pre-flip.
func TestScanawareMonitoringNoise(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=1")
	// Flip first: one genuinely scan-dominated interval.
	prev := snap(0, "tas", "hashmap", 0, 0, 0, 0)
	cur := snap(0, "tas", "hashmap", 0, 0, 100, 0)
	if _, bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
		t.Fatalf("did not flip: %q, %v", bs, swap)
	}
	// A long lull where only the monitor touches the stripe (3 acquires
	// per interval, no scans): never restores.
	acq := uint64(0)
	prev = snap(0, "tas", DefaultOrderedSpec, 0, acq, 100, 0)
	for i := 0; i < 50; i++ {
		acq += 3
		cur = snap(0, "tas", DefaultOrderedSpec, 0, acq, 100, 0)
		if _, bs, swap := p.Decide(prev, cur); swap {
			t.Fatalf("monitoring noise restored the backend at interval %d (%q)", i, bs)
		}
		prev = cur
	}
}

// TestScanawareZeroFracDisabled: scanfrac=0 disables the policy (the
// malthusian "0 disables" convention) — without that rule every interval
// would read as both hot (share >= 0) and calm (share <= 0), migrating
// the stripe back and forth forever on pure point traffic.
func TestScanawareZeroFracDisabled(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0&hold=1")
	var acq uint64
	prev := snap(0, "tas", "hashmap", 0, acq, 0, 0)
	for i := 0; i < 10; i++ {
		acq += 1000
		cur := snap(0, "tas", "hashmap", 0, acq, 0, 0)
		if _, bs, swap := p.Decide(prev, cur); swap {
			t.Fatalf("scanfrac=0 swapped at interval %d (%q)", i, bs)
		}
		prev = cur
	}
}

func TestScanawareAlreadyOrdered(t *testing.T) {
	// Any ordered backend already serves scans: flipping "rbtree" (or a
	// parameterized "skiplist?seed=7") to the target would be an O(keys)
	// migration for zero functional gain.
	p := MustNew("scanaware?hold=1&scanfrac=0.1")
	for _, spec := range []string{"skiplist", "rbtree", "skiplist?seed=7"} {
		prev := snap(0, "tas", spec, 0, 0, 0, 0)
		cur := snap(0, "tas", spec, 0, 0, 1000, 0)
		if _, _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("flipped a stripe already ordered (%q)", spec)
		}
	}
}

// TestPolicyAgainstLiveMap wires a registry policy against real map
// snapshots, deterministically: a short HistoryWindow makes RecentLWSS
// the trailing working set of the last 8 admissions, which single-
// threaded identified traffic can widen (8 distinct client ids) and
// narrow (8 admissions by one id) at will. The malthusian policy must
// demote the hammered stripe, leave the idle stripe alone, and restore
// when the working set narrows. This is the integration seam the unit
// snapshots above mock.
func TestPolicyAgainstLiveMap(t *testing.T) {
	m := shard.MustNew(shard.Config{
		Stripes: 2, LockSpec: "tas", HistoryCap: 1 << 12, HistoryWindow: 8,
	})
	pol := MustNew("malthusian?parks=0&lwss=4&hold=1")
	key := uint64(0)
	idx := m.StripeFor(key)
	other := 1 - idx

	prev := m.Snapshot()
	for id := 0; id < 8; id++ {
		ctx := shard.WithClientID(context.Background(), id)
		if _, err := m.PutContext(ctx, key, 1); err != nil {
			t.Fatal(err)
		}
	}
	cur := m.Snapshot()
	if got := cur.Stripes[idx].Fairness.RecentLWSS; got != 8 {
		t.Fatalf("RecentLWSS=%v want 8", got)
	}
	if _, _, swap := pol.Decide(prev.Stripes[other], cur.Stripes[other]); swap {
		t.Fatal("demoted the idle stripe")
	}
	ls, bs, swap := pol.Decide(prev.Stripes[idx], cur.Stripes[idx])
	if !swap || ls != DefaultHotLockSpec {
		t.Fatalf("Decide = %q, %q, %v want demote to %q", ls, bs, swap, DefaultHotLockSpec)
	}
	if err := m.Reconfigure(idx, ls, bs); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.StripeSpecs(idx); got != DefaultHotLockSpec {
		t.Fatalf("stripe %d spec %q after demote", idx, got)
	}

	// Narrow the trailing working set to one client: calm, restore.
	ctx := shard.WithClientID(context.Background(), 0)
	for i := 0; i < 8; i++ {
		if _, err := m.PutContext(ctx, key, 2); err != nil {
			t.Fatal(err)
		}
	}
	prev, cur = cur, m.Snapshot()
	ls, _, swap = pol.Decide(prev.Stripes[idx], cur.Stripes[idx])
	if !swap || ls != "tas" {
		t.Fatalf("restore Decide = %q, %v want tas back", ls, swap)
	}
	if err := m.Reconfigure(idx, ls, ""); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.StripeSpecs(idx); got != "tas" {
		t.Fatalf("stripe %d spec %q after restore", idx, got)
	}
}
