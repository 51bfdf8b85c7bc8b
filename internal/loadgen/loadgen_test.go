package loadgen

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchfmt"
)

// step is one scripted timeline event: the workers' cumulative counters
// at ms milliseconds into the cell, and what the supervisor does with
// them.
type step struct {
	ev               string // "arm", "disarm" or "sample"
	ms               int64
	attempts, misses int64
}

func TestPhaseAccountant(t *testing.T) {
	const target = 0.05
	for _, tc := range []struct {
		name   string
		script []step
		endA   int64 // counters when the cell stops
		endM   int64
		want   benchfmt.ChaosResult
		phase  int // phase the cell ended in
	}{
		{
			name: "never armed",
			endA: 100, endM: 3,
			want:  benchfmt.ChaosResult{PreAttempts: 100, PreMisses: 3, PreMissRate: 0.03, RecoveryMillis: -1},
			phase: pre,
		},
		{
			// The storm never calms while armed; the three calm samples
			// all fall after Disarm, and recovery is still clocked from
			// Arm to the first of them.
			name: "disarm before recovery",
			script: []step{
				{"arm", 100, 100, 0},
				{"sample", 125, 200, 90},
				{"sample", 150, 300, 180},
				{"disarm", 175, 400, 270},
				{"sample", 175, 400, 270},
				{"sample", 200, 500, 271},
				{"sample", 225, 600, 272},
				{"sample", 250, 700, 273},
			},
			endA: 800, endM: 273,
			want: benchfmt.ChaosResult{
				PreAttempts: 100, PreMisses: 0,
				FaultAttempts: 300, FaultMisses: 270, FaultMissRate: 0.9,
				PostAttempts: 400, PostMisses: 3, PostMissRate: 0.0075,
				RecoveryMillis: 100,
			},
			phase: post,
		},
		{
			// Two calm samples, a relapse, then three: only the third
			// consecutive calm sample declares recovery, dated to the
			// first of its own run (300ms - 100ms), not the broken one.
			name: "recovery on exactly the third calm sample",
			script: []step{
				{"arm", 100, 0, 0},
				{"sample", 150, 100, 50},
				{"sample", 200, 200, 51},
				{"sample", 225, 300, 52},
				{"sample", 250, 400, 100},
				{"sample", 300, 500, 101},
				{"sample", 325, 600, 102},
			},
			endA: 600, endM: 102,
			want:  benchfmt.ChaosResult{FaultAttempts: 600, FaultMisses: 102, FaultMissRate: 0.17, RecoveryMillis: -1},
			phase: storming,
		},
		{
			name: "recovery on exactly the third calm sample (third arrives)",
			script: []step{
				{"arm", 100, 0, 0},
				{"sample", 150, 100, 50},
				{"sample", 200, 200, 51},
				{"sample", 225, 300, 52},
				{"sample", 250, 400, 100},
				{"sample", 300, 500, 101},
				{"sample", 325, 600, 102},
				{"sample", 350, 700, 103},
				{"sample", 375, 800, 200}, // a later relapse does not un-recover
			},
			endA: 800, endM: 200,
			want:  benchfmt.ChaosResult{FaultAttempts: 800, FaultMisses: 200, FaultMissRate: 0.25, RecoveryMillis: 200},
			phase: storming,
		},
		{
			// Samples with no deadline traffic are no evidence either
			// way: they neither extend nor break a calm run.
			name: "zero-attempt samples skipped",
			script: []step{
				{"arm", 0, 10, 0},
				{"sample", 25, 20, 9},
				{"sample", 50, 30, 9},
				{"sample", 75, 30, 9},
				{"sample", 100, 40, 9},
				{"sample", 125, 40, 9},
				{"sample", 150, 50, 9},
			},
			endA: 50, endM: 9,
			want:  benchfmt.ChaosResult{PreAttempts: 10, FaultAttempts: 40, FaultMisses: 9, FaultMissRate: 0.225, RecoveryMillis: 50},
			phase: storming,
		},
		{
			name: "cell ends mid-storm",
			script: []step{
				{"arm", 100, 50, 1},
				{"sample", 125, 150, 90},
			},
			endA: 250, endM: 180,
			want: benchfmt.ChaosResult{
				PreAttempts: 50, PreMisses: 1, PreMissRate: 0.02,
				FaultAttempts: 200, FaultMisses: 179, FaultMissRate: 0.895,
				RecoveryMillis: -1,
			},
			phase: storming,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			epoch := time.Unix(1000, 0)
			p := phases{target: target, cr: &benchfmt.ChaosResult{RecoveryMillis: -1}}
			for _, s := range tc.script {
				now := epoch.Add(time.Duration(s.ms) * time.Millisecond)
				switch s.ev {
				case "arm":
					p.arm(now, s.attempts, s.misses)
				case "disarm":
					p.disarm(s.attempts, s.misses)
				case "sample":
					p.sample(now, s.attempts, s.misses)
				}
			}
			if got := p.finish(tc.endA, tc.endM); got != tc.phase {
				t.Errorf("ended in phase %d, want %d", got, tc.phase)
			}
			if *p.cr != tc.want {
				t.Errorf("got  %+v\nwant %+v", *p.cr, tc.want)
			}
		})
	}
}

func TestKeyPicker(t *testing.T) {
	const keys = 64
	for _, dist := range []string{"uniform", "zipf"} {
		pick := keyPicker(rand.New(rand.NewSource(1)), dist, 1.2, keys)
		var hist [keys]int
		for i := 0; i < 20000; i++ {
			k := pick()
			if k >= keys {
				t.Fatalf("%s: key %d outside [0,%d)", dist, k, keys)
			}
			hist[k]++
		}
		if skewed := hist[0] > 4*hist[keys/2]; skewed != (dist == "zipf") {
			t.Fatalf("%s: key 0 drawn %d times, key %d %d times", dist, hist[0], keys/2, hist[keys/2])
		}
	}
}

func TestSleepUntilStops(t *testing.T) {
	var stop atomic.Bool
	if !sleepUntil(time.Now().Add(-time.Second), &stop) {
		t.Fatal("a time already past must proceed")
	}
	time.AfterFunc(10*time.Millisecond, func() { stop.Store(true) })
	start := time.Now()
	if sleepUntil(start.Add(time.Minute), &stop) {
		t.Fatal("proceeded although stopped")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("a stopped wait ran toward its target")
	}
}
