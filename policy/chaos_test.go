package policy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/fault"
	"repro/shard"
)

// TestChaosStallStormDemoteRecover is the scripted end-to-end chaos
// scenario: a critical-section stall storm is injected on a hot stripe
// and the slo policy must ride it out —
//
//	inject → demote (while the fault is still active) → deadline-miss
//	rate back under target → fault lifted → original spec restored →
//	no further swaps.
//
// The traffic mix is what makes the recovery physically possible, and it
// is the paper's own scenario: a crowd of *patient* closed-loop
// hammerers (plain ops, no deadlines — they can afford to wait) plus a
// paced trickle of deadline-bounded probes (the SLO traffic). Under the
// FIFO mcs-stp lock the stall convoys: a probe queues behind every
// hammerer, each holding the stalled critical section, and its wait is
// roughly hammerers × hold — far past its deadline, so the budget burns.
// Culling (mcscr-stp) passivates the patient crowd instead: the active
// set collapses to a couple of threads, a freshly arrived probe is
// granted after one or two holds, and the deadline is met *while the
// stall is still being injected*. Demoting the lock fixes the SLO
// without fixing the fault — which is exactly the claim of "Malthusian
// Locks", measured at the objective.
func TestChaosStallStormDemoteRecover(t *testing.T) {
	// The margins are two-sided: the storm must overrun the probe SLO
	// with room to spare (hammerers × hold = 20ms ≫ 12ms), while the
	// SLO must stay meetable through ordinary scheduler noise on a
	// loaded test machine (a fault-free critical section is sub-µs, so
	// only starvation of the probe goroutine itself burns the budget —
	// 12ms absorbs what 8ms did not when the whole suite runs in
	// parallel).
	const (
		hammerers = 10
		hold      = 2 * time.Millisecond
		probeSLO  = 12 * time.Millisecond
		probeGap  = 2 * time.Millisecond
		interval  = 20 * time.Millisecond
		target    = 0.25
	)
	m := shard.MustNew(shard.Config{Stripes: 2, LockSpec: "mcs-stp"})
	hotKey := uint64(1)
	idx := m.StripeFor(hotKey)

	set := fault.MustNew(fmt.Sprintf("stall?p=1&hold=%s&stripe=%d", hold, idx))
	m.SetInjector(set)

	// slow=30 keeps storm evidence in the slow window for ~600ms after
	// the demotion: long enough that the policy cannot restore while the
	// fault is still armed (the mid-fault SLO recovery would otherwise
	// read as calm), short enough that the post-fault restore below
	// completes promptly.
	pol := MustNew(fmt.Sprintf("slo?target=%v&fast=3&slow=30&min=4&hot=mcscr-stp", target))
	ctl := shard.StartController(context.Background(), m, pol, interval)
	defer ctl.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hammerers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Put(hotKey, 1) // patient: no deadline, happy to wait out the stall
			}
		}()
	}
	var probeAttempts, probeMisses atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(probeGap)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), probeSLO)
			_, _, err := m.GetContext(ctx, hotKey)
			cancel()
			probeAttempts.Add(1)
			if err != nil {
				probeMisses.Add(1)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	lockSpecOf := func(i int) string {
		t.Helper()
		ls, _ := m.StripeSpecs(i)
		return ls
	}
	// missRate samples the probes' own deadline-miss rate over one
	// observation window. It deliberately reads the probe goroutine's
	// counters, not a map snapshot: a snapshot acquires the stormed
	// stripe's lock, and on a culling lock a monitor is exactly the kind
	// of patient arrival that gets passivated — the measurement would
	// stall behind the very convoy it is measuring. The probes' counters
	// are also the honest signal: the SLO is what callers observe.
	missRate := func(window time.Duration) float64 {
		a0, m0 := probeAttempts.Load(), probeMisses.Load()
		time.Sleep(window)
		dA := probeAttempts.Load() - a0
		dM := probeMisses.Load() - m0
		if dA == 0 {
			return 0
		}
		return float64(dM) / float64(dA)
	}

	// Phase 1 — healthy baseline: no fault, no swaps.
	time.Sleep(6 * interval)
	if got := ctl.Swaps(); got != 0 {
		t.Fatalf("swapped %d times on a healthy map", got)
	}

	// Phase 2 — inject. The storm must demote the stripe to the culling
	// lock while the fault is still active.
	// The controller publishes a swap before it counts it, so each wait
	// below also waits for the count to catch up with the spec.
	set.Arm()
	waitFor("slo to demote the stormed stripe", func() bool {
		return lockSpecOf(idx) == "mcscr-stp" && ctl.Swaps() >= 1
	})
	if !set.Active() {
		t.Fatal("fault no longer active at demotion — the storm script is wrong")
	}
	if got := ctl.Swaps(); got != 1 {
		t.Fatalf("Swaps = %d at demotion, want 1", got)
	}

	// Phase 3 — SLO recovery under active fault: with the patient crowd
	// passivated, probe misses must fall back under target even though
	// every critical section on the stripe still stalls.
	waitFor("post-demotion miss rate below target", func() bool {
		return missRate(5*interval) < target
	})
	if st := set.Stats(); st.Stalls == 0 {
		t.Fatalf("no stalls recorded while recovering: %+v", st)
	}

	// Phase 4 — lift the fault; sustained calm must restore the original
	// FIFO spec, exactly once.
	set.Disarm()
	waitFor("slo to restore the original spec", func() bool {
		return lockSpecOf(idx) == "mcs-stp" && ctl.Swaps() >= 2
	})
	if got := ctl.Swaps(); got != 2 {
		t.Fatalf("Swaps = %d after restore, want 2 (demote + restore)", got)
	}

	// Phase 5 — zero flapping: a healthy map after recovery stays put.
	time.Sleep(10 * interval)
	if got := ctl.Swaps(); got != 2 {
		t.Fatalf("Swaps grew to %d after recovery — flapping", got)
	}
	if got := lockSpecOf(idx); got != "mcs-stp" {
		t.Fatalf("stripe %d spec %q after recovery", idx, got)
	}
	if got := lockSpecOf(1 - idx); got != "mcs-stp" {
		t.Fatalf("untargeted stripe %d was swapped (%q)", 1-idx, got)
	}
	if got := ctl.Rejected(); got != 0 {
		t.Fatalf("controller rejected %d swaps", got)
	}
}
