// Package loadgen holds the pieces cmd/shardbench (in-process) and
// cmd/shardload (over the wire) share verbatim: the key popularity
// picker, the stop-aware open-loop sleep, and the chaos supervisor that
// arms a fault on a timeline, splits the deadline traffic into
// pre/fault/post phases and measures time-to-recovery. The two worker
// loops stay in their commands — their deadline and arrival semantics
// differ on purpose.
package loadgen

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
)

// KeyPicker returns a draw over the keyspace [0, keys) from rng: zipf
// popularity with skew zipfS (> 1; key 0 hottest) when dist is "zipf",
// uniform otherwise.
func KeyPicker(rng *rand.Rand, dist string, zipfS float64, keys int) func() uint64 {
	if dist == "zipf" {
		return rand.NewZipf(rng, zipfS, 1, uint64(keys-1)).Uint64
	}
	return func() uint64 { return uint64(rng.Intn(keys)) }
}

// SleepUntil sleeps toward t in short slices, abandoning the wait when
// stop is set. It reports whether the caller should proceed (false =
// stopped). Sliced sleeping keeps a low-rate worker from sleeping through
// the end of the cell: an exponential-tail inter-arrival would otherwise
// run one op past the measured window (inflating OpsPerSec exactly where
// each op matters most) and stall cell teardown until the worker wakes.
func SleepUntil(t time.Time, stop *atomic.Bool) bool {
	const slice = 5 * time.Millisecond
	for {
		if stop.Load() {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if d > slice {
			d = slice
		}
		time.Sleep(d)
	}
}

// Chaos is one cell's scripted fault timeline: healthy for After, the
// fault armed for For, then a recovery tail until Stop is set.
type Chaos struct {
	After, For time.Duration
	Sample     time.Duration // sampler cadence
	Target     float64       // trailing miss rate at or below which a sample counts as calm

	// Attempts and Misses are the workers' own deadline counters. The
	// sampler reads these, never a map snapshot: a monitor acquiring a
	// stormed stripe's lock is exactly the kind of patient arrival a
	// culling lock passivates, and the measurement must not stall behind
	// the convoy it is measuring.
	Attempts, Misses *atomic.Int64
	Stop             *atomic.Bool

	// Arm and Disarm switch the fault on and off — a local fault.Set, or
	// the wire's FAULT verb.
	Arm, Disarm func()
	// OnSample, if non-nil, runs at every sample from Arm on, with
	// whether the fault is still armed (shardbench sizes its surge pool
	// here).
	OnSample func(armed bool)
}

// Run drives the timeline until Stop is set and returns the phase
// accounting and recovery time; the caller fills in the fault spec and
// the injected-fault evidence. A cell that ends mid-storm is disarmed
// before Run returns.
func (c Chaos) Run() *benchfmt.ChaosResult {
	p := phases{target: c.Target, cr: &benchfmt.ChaosResult{RecoveryMillis: -1}}
	start := time.Now()
	tick := time.NewTicker(c.Sample)
	defer tick.Stop()
	for !c.Stop.Load() {
		<-tick.C
		now := time.Now()
		a, m := c.Attempts.Load(), c.Misses.Load()
		switch {
		case p.phase == pre && now.Sub(start) >= c.After:
			p.arm(now, a, m)
			c.Arm()
			continue
		case p.phase == storming && now.Sub(p.armedAt) >= c.For:
			p.disarm(a, m)
			c.Disarm()
		}
		if p.phase == pre {
			continue
		}
		if c.OnSample != nil {
			c.OnSample(p.phase == storming)
		}
		p.sample(now, a, m)
	}
	if p.finish(c.Attempts.Load(), c.Misses.Load()) == storming {
		c.Disarm()
	}
	return p.cr
}

const (
	pre = iota
	storming
	post
)

// phases is the chaos accountant: fed the workers' cumulative
// attempt/miss counters at each timeline event, it splits them into
// pre/fault/post totals and detects recovery — the first three
// consecutive samples with deadline evidence whose trailing miss rate
// held at or below target, clocked from Arm to the first of the three.
type phases struct {
	target float64
	cr     *benchfmt.ChaosResult

	phase          int
	phaseA, phaseM int64 // counters when the current phase began
	lastA, lastM   int64 // counters at the previous sample

	armedAt, calmSince time.Time
	calm               int // consecutive calm samples so far
}

func (p *phases) endPhase(a, m int64) (attempts, misses int) {
	attempts, misses = int(a-p.phaseA), int(m-p.phaseM)
	p.phaseA, p.phaseM = a, m
	return attempts, misses
}

func (p *phases) arm(now time.Time, a, m int64) {
	p.cr.PreAttempts, p.cr.PreMisses = p.endPhase(a, m)
	p.armedAt = now
	p.phase = storming
	p.lastA, p.lastM = a, m
}

func (p *phases) disarm(a, m int64) {
	p.cr.FaultAttempts, p.cr.FaultMisses = p.endPhase(a, m)
	p.phase = post
}

func (p *phases) sample(now time.Time, a, m int64) {
	dA, dM := a-p.lastA, m-p.lastM
	p.lastA, p.lastM = a, m
	if p.cr.RecoveryMillis >= 0 || dA == 0 {
		return // recovered already, or no deadline evidence this sample
	}
	if float64(dM)/float64(dA) > p.target {
		p.calm = 0
		return
	}
	if p.calm == 0 {
		p.calmSince = now
	}
	if p.calm++; p.calm >= 3 {
		p.cr.RecoveryMillis = float64(p.calmSince.Sub(p.armedAt).Milliseconds())
	}
}

// finish closes out whatever phase the cell ended in (a validated
// timeline always reaches post, but the accounting holds regardless),
// computes the per-phase rates and returns that phase.
func (p *phases) finish(a, m int64) int {
	cr := p.cr
	switch p.phase {
	case pre:
		cr.PreAttempts, cr.PreMisses = p.endPhase(a, m)
	case storming:
		cr.FaultAttempts, cr.FaultMisses = p.endPhase(a, m)
	case post:
		cr.PostAttempts, cr.PostMisses = p.endPhase(a, m)
	}
	cr.PreMissRate = benchfmt.Rate(cr.PreMisses, cr.PreAttempts)
	cr.FaultMissRate = benchfmt.Rate(cr.FaultMisses, cr.FaultAttempts)
	cr.PostMissRate = benchfmt.Rate(cr.PostMisses, cr.PostAttempts)
	return p.phase
}
