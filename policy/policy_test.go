package policy

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/shard"
)

func TestRegistry(t *testing.T) {
	if got := strings.Join(Names(), " "); got != "scanaware static" {
		t.Fatalf("Names() = %q want \"scanaware static\"", got)
	}
	if _, ok := Lookup("noop"); !ok {
		t.Fatal("alias noop did not resolve")
	}
	for _, spec := range []string{"static", "scanaware?scanfrac=0.25&to=rbtree&hold=3"} {
		if _, err := New(spec); err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
	}
	for _, bad := range []struct{ spec, frag string }{
		{"no-such-policy", "unknown policy"},
		{"Malthusian", "unknown policy"},
		{"static?bogus=1", "unknown parameter"},
		{"slo", "unknown policy"},
		{"scanaware?lwss=8", "unknown parameter"},
		{"scanaware?hold=0", "bad value"},
		{"scanaware?scanfrac=1.5", "bad value"},
		{"scanaware?scanfrac=0.5&scanfrac=0.6", "given 2 times"},
		{"scanaware?hot=mcscr-stp", "unknown parameter"},
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
	// The unknown-name error lists what is registered. Names fold case,
	// so this is the deleted park-keyed policy's name too.
	_, err := New("Malthusian")
	for _, name := range []string{"scanaware", "static"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("New(\"Malthusian\") error %q does not list %q", err, name)
		}
	}
}

func TestStatic(t *testing.T) {
	p := MustNew("static")
	hot := shard.StripeSnapshot{Index: 0, Counters: shard.Counters{Lock: core.Snapshot{Parks: 1 << 20}}}
	for i := 0; i < 10; i++ {
		if _, swap := p.Decide(shard.StripeSnapshot{}, hot); swap {
			t.Fatal("static swapped")
		}
	}
}

// snap builds a scripted stripe snapshot: cumulative acquires and scan
// attempts, the signals scanaware reads.
func snap(idx int, backendSpec string, acquires, scans uint64) shard.StripeSnapshot {
	return shard.StripeSnapshot{
		Index:       idx,
		BackendSpec: backendSpec,
		Ordered:     backendSpec != "hashmap",
		Counters:    shard.Counters{Scans: scans, Lock: core.Snapshot{Acquires: acquires}},
	}
}

func TestScanawareFlipsAndRestores(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=2")
	prev := snap(1, "hashmap", 0, 0)

	// Scan-dominated intervals (share 1.0 — scans rejected by hashmap,
	// so acquires stay 0 while attempts mount).
	cur := snap(1, "hashmap", 0, 100)
	if _, swap := p.Decide(prev, cur); swap {
		t.Fatal("flipped after one interval (hold=2)")
	}
	prev, cur = cur, snap(1, "hashmap", 0, 200)
	bs, swap := p.Decide(prev, cur)
	if !swap || bs != DefaultOrderedSpec {
		t.Fatalf("flip Decide = %q, %v want %q, true", bs, swap, DefaultOrderedSpec)
	}

	// Scans fade (share <= 0.25 of acquisitions): restore the hashmap.
	prev = snap(1, DefaultOrderedSpec, 1000, 200)
	cur = snap(1, DefaultOrderedSpec, 2000, 210) // 10/1000
	if _, swap := p.Decide(prev, cur); swap {
		t.Fatal("restored after one calm interval")
	}
	prev, cur = cur, snap(1, DefaultOrderedSpec, 3000, 215)
	bs, swap = p.Decide(prev, cur)
	if !swap || bs != "hashmap" {
		t.Fatalf("restore Decide = %q, %v want hashmap back", bs, swap)
	}
}

func TestScanawareIdleAndNoFlap(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0.5&hold=2")
	prev := snap(0, "hashmap", 0, 0)
	// One hot interval...
	cur := snap(0, "hashmap", 0, 100)
	if _, swap := p.Decide(prev, cur); swap {
		t.Fatal("flipped early")
	}
	// ...then idle intervals: no evidence, no decay, no flip.
	for i := 0; i < 5; i++ {
		prev, cur = cur, snap(0, "hashmap", 0, 100)
		if _, swap := p.Decide(prev, cur); swap {
			t.Fatal("flipped on an idle interval")
		}
	}
	// Evidence survives the idle gap: the next hot interval completes
	// the hold and flips.
	prev, cur = cur, snap(0, "hashmap", 0, 200)
	if bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
		t.Fatalf("idle gap decayed the signal: %q, %v", bs, swap)
	}

	// A fresh policy fed an oscillating scan share around the threshold
	// never accumulates hold consecutive hot intervals — no flip, ever.
	p2 := MustNew("scanaware?scanfrac=0.5&hold=2")
	scans, acqs := uint64(0), uint64(0)
	prev = snap(0, "hashmap", 0, 0)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			scans += 100 // all-scan interval
		} else {
			acqs += 1000 // all-point interval
		}
		cur = snap(0, "hashmap", acqs, scans)
		if _, swap := p2.Decide(prev, cur); swap {
			t.Fatalf("scanaware flapped at interval %d", i)
		}
		prev = cur
	}
}

// TestRejectedSwapResync: when a decided swap never lands (Map.Reconfigure
// fails, or another actor swaps first), the policy must resync from the
// observed stripe state and keep retrying while the signal persists — not
// believe its own memory of a swap that did not happen.
func TestRejectedSwapResync(t *testing.T) {
	// scanaware whose flip never shows up in the stripe's spec.
	ps := MustNew("scanaware?scanfrac=0.5&hold=1&to=rbtree")
	var scanned uint64
	sprev := snap(0, "hashmap", 0, scanned)
	for i := 0; i < 3; i++ {
		scanned += 100
		cur := snap(0, "hashmap", 0, scanned) // flip rejected: still unordered
		bs, swap := ps.Decide(sprev, cur)
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
	prev := snap(0, "hashmap", acq, scansSeen)
	for i := 0; i < 5; i++ {
		scansSeen += 500
		acq += 1000 // point ops only: rejected scans never acquired
		cur := snap(0, "hashmap", acq, scansSeen)
		if _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("interval %d: flipped at a true scan share of 1/3 (threshold 0.5)", i)
		}
		prev = cur
	}
	// At a true share of 0.6 (1500 scans vs 1000 point ops), it flips.
	scansSeen += 1500
	acq += 1000
	cur := snap(0, "hashmap", acq, scansSeen)
	if bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
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
	prev := snap(0, "hashmap", 0, 0)
	cur := snap(0, "hashmap", 0, 100)
	if bs, swap := p.Decide(prev, cur); !swap || bs != DefaultOrderedSpec {
		t.Fatalf("did not flip: %q, %v", bs, swap)
	}
	// A long lull where only the monitor touches the stripe (3 acquires
	// per interval, no scans): never restores.
	acq := uint64(0)
	prev = snap(0, DefaultOrderedSpec, acq, 100)
	for i := 0; i < 50; i++ {
		acq += 3
		cur = snap(0, DefaultOrderedSpec, acq, 100)
		if bs, swap := p.Decide(prev, cur); swap {
			t.Fatalf("monitoring noise restored the backend at interval %d (%q)", i, bs)
		}
		prev = cur
	}
}

// TestScanawareZeroFracDisabled: scanfrac=0 disables the policy —
// without that rule every interval would read
// as both hot (share >= 0) and calm (share <= 0), migrating the stripe
// back and forth forever on pure point traffic.
func TestScanawareZeroFracDisabled(t *testing.T) {
	p := MustNew("scanaware?scanfrac=0&hold=1")
	var acq uint64
	prev := snap(0, "hashmap", acq, 0)
	for i := 0; i < 10; i++ {
		acq += 1000
		cur := snap(0, "hashmap", acq, 0)
		if bs, swap := p.Decide(prev, cur); swap {
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
		prev := snap(0, spec, 0, 0)
		cur := snap(0, spec, 0, 1000)
		if _, swap := p.Decide(prev, cur); swap {
			t.Fatalf("flipped a stripe already ordered (%q)", spec)
		}
	}
}

// TestPolicyAgainstLiveMap wires a registry policy against real map
// snapshots, deterministically: scans on a hashmap map are rejected but
// still counted, so the scanaware policy must see the demand, flip every
// stripe to the ordered backend through Reconfigure, and the same scan
// must then be served, in order, with no entry lost to the migration.
// This is the integration seam the scripted snapshots above mock.
func TestPolicyAgainstLiveMap(t *testing.T) {
	m := shard.MustNew(shard.Config{Stripes: 2, LockSpec: "tas", BackendSpec: "hashmap"})
	pol := MustNew("scanaware?scanfrac=0.5&hold=1")
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		m.Put(k, k*10)
	}
	visit := func(k, v uint64) bool { return true }

	prev := m.Snapshot()
	for i := 0; i < 32; i++ {
		if err := m.Scan(0, keys-1, visit); !errors.Is(err, shard.ErrUnordered) {
			t.Fatalf("Scan on hashmap stripes = %v want ErrUnordered", err)
		}
	}
	cur := m.Snapshot()
	for i := range cur.Stripes {
		bs, swap := pol.Decide(prev.Stripes[i], cur.Stripes[i])
		if !swap || bs != DefaultOrderedSpec {
			t.Fatalf("stripe %d: Decide = %q, %v want flip to %q", i, bs, swap, DefaultOrderedSpec)
		}
		if err := m.Reconfigure(i, bs); err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot().Stripes[i].BackendSpec; got != DefaultOrderedSpec {
			t.Fatalf("stripe %d backend %q after flip", i, got)
		}
	}

	var next uint64
	err := m.Scan(0, keys-1, func(k, v uint64) bool {
		if k != next || v != k*10 {
			t.Fatalf("Scan visited (%d, %d) want (%d, %d)", k, v, next, next*10)
		}
		next++
		return true
	})
	if err != nil || next != keys {
		t.Fatalf("Scan after flip = %v after %d keys, want nil after %d", err, next, keys)
	}
}
