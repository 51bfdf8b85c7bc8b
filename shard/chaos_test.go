package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/fault"
)

// TestChaosStallStorm is the paper's convoy, injected: every critical
// section on a hot stripe stalls, and the question is whether the
// deadline-bounded traffic still gets through while the fault fires.
//
// The traffic mix is what makes recovery physically possible: a crowd of
// *patient* closed-loop hammerers (plain ops, no deadlines — they can
// afford to wait) plus a paced trickle of deadline-bounded probes (the
// SLO traffic). Under the FIFO mcs-stp lock the stall convoys: a probe
// queues behind every hammerer, each holding the stalled critical
// section, and its wait is roughly hammerers × hold — far past its
// deadline, so the probes keep missing for as long as the fault is armed.
// Culling (mcscr-stp) passivates the patient crowd instead: the active
// set collapses to a couple of threads, a freshly arrived probe is
// granted after one or two holds, and the deadline is met *while the
// stall is still being injected*. The lock fixes the SLO without fixing
// the fault — the claim of "Malthusian Locks", measured at the objective,
// with no controller and no swap: the stripe's lock is the one New built.
func TestChaosStallStorm(t *testing.T) {
	// The margins are two-sided: the storm must overrun the probe SLO
	// with room to spare (hammerers × hold = 20ms ≫ 12ms), while the
	// SLO must stay meetable through ordinary scheduler noise on a
	// loaded test machine (a fault-free critical section is sub-µs, so
	// only starvation of the probe goroutine itself burns the budget).
	const (
		hammerers = 10
		hold      = 2 * time.Millisecond
		probeSLO  = 12 * time.Millisecond
		probeGap  = 2 * time.Millisecond
		window    = 100 * time.Millisecond
		target    = 0.25
	)
	for _, tc := range []struct {
		lock     string
		recovers bool
	}{
		{"mcscr-stp", true},
		{"mcs-stp", false},
	} {
		t.Run(tc.lock, func(t *testing.T) {
			m := MustNew(Config{Stripes: 2, LockSpec: tc.lock})
			hotKey := uint64(1)
			idx := m.StripeFor(hotKey)
			set := fault.MustNew(fmt.Sprintf("stall?p=1&hold=%s&stripe=%d", hold, idx))
			m.SetInjector(set)

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
			// Disarm before stopping: a hammerer parked behind a stalled
			// section then drains in microseconds.
			defer func() { set.Disarm(); close(stop); wg.Wait() }()

			// missRate samples the probes' own deadline-miss rate over one
			// window. It deliberately reads the probe goroutine's counters,
			// not a map snapshot: a snapshot acquires the stormed stripe's
			// lock, and on a culling lock a monitor is exactly the kind of
			// patient arrival that gets passivated — the measurement would
			// stall behind the very convoy it is measuring. The probes'
			// counters are also the honest signal: the SLO is what callers
			// observe.
			missRate := func() float64 {
				a0, m0 := probeAttempts.Load(), probeMisses.Load()
				time.Sleep(window)
				dA := probeAttempts.Load() - a0
				dM := probeMisses.Load() - m0
				if dA == 0 {
					return 1 // no probe finished in a whole window: all late
				}
				return float64(dM) / float64(dA)
			}

			set.Arm()
			if tc.recovers {
				// With the patient crowd passivated, probe misses fall back
				// under target even though every critical section on the
				// stripe still stalls.
				deadline := time.Now().Add(20 * time.Second)
				for missRate() >= target {
					if time.Now().After(deadline) {
						t.Fatal("probe miss rate never fell under target while the stall fired")
					}
				}
			} else {
				// The FIFO queue charges every probe the whole convoy:
				// no window of the fault phase comes in under target.
				for i := 0; i < 10; i++ {
					if r := missRate(); r < target {
						t.Fatalf("window %d: probe miss rate %.2f under target %.2f on a FIFO lock mid-storm", i, r, target)
					}
				}
			}
			if !set.Active() {
				t.Fatal("fault no longer active — the storm script is wrong")
			}
			if st := set.Stats(); st.Stalls == 0 {
				t.Fatalf("no stalls recorded: %+v", st)
			}
		})
	}
}
