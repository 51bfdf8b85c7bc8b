package core

import (
	"math"
	"testing"
)

func TestDefaultPolicy(t *testing.T) {
	if DefaultFairnessPeriod != 1000 {
		t.Fatalf("fairness period %d, want the paper's 1000", DefaultFairnessPeriod)
	}
}

func TestTrialPromoteRate(t *testing.T) {
	tr := NewTrial(1000, 42)
	const draws = 500_000
	hits := 0
	for i := 0; i < draws; i++ {
		if tr.Promote() {
			hits++
		}
	}
	want := float64(draws) / 1000
	if math.Abs(float64(hits)-want) > 6*math.Sqrt(want) {
		t.Fatalf("promotion rate: %d hits over %d draws, want ~%.0f", hits, draws, want)
	}
}

func TestTrialDisabled(t *testing.T) {
	tr := NewTrial(0, 1)
	for i := 0; i < 10_000; i++ {
		if tr.Promote() {
			t.Fatal("period 0 must never promote")
		}
	}
}

func TestTrialAlways(t *testing.T) {
	tr := NewTrial(1, 1)
	for i := 0; i < 100; i++ {
		if !tr.Promote() {
			t.Fatal("period 1 must always promote")
		}
	}
}

func TestTrialProb(t *testing.T) {
	tr := NewTrial(0, 9)
	hits := 0
	const draws = 200_000
	for i := 0; i < draws; i++ {
		if tr.Prob(0.001) {
			hits++
		}
	}
	if hits < 100 || hits > 400 {
		t.Fatalf("Prob(0.001): %d hits over %d draws", hits, draws)
	}
}

// Stats tests (striping, disabled mode, layout) live in stats_test.go.
