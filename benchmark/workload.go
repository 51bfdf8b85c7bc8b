//go:build linux

package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// config is everything a run is sized by. The flags set seed, segLen
// and nseg; the rest is fixed by the issue, or shrunk by -smoke.
type config struct {
	seed   uint64
	segLen time.Duration // one measured segment
	warm   time.Duration // the discarded warm-up segment
	probe  time.Duration // one ladder segment: a curve point, a try-out, a lateness run
	nseg   int           // measured segments per run
	setups int           // timed set-ups per run; the last one is measured

	keys      uint64 // preloaded shared keys, a power of two
	streamLen int    // pre-generated requests per worker
	warmOps   int    // requests replayed inside each timed set-up
	ladderOps int    // operations per ladder rung

	nproc    int    // CPUs the load is sized for
	root     string // module root: where go.mod and BENCHMARK.json live
	buildDir string // compiled shardd and trace files

	sharddBin string // set once by ensureShardd

	// smoke marks a toy-sized run: its timings mean nothing, so the one
	// check that judges a timing — generator lateness — is not applied.
	smoke bool
}

func (c *config) tracePath(workload string) string {
	return filepath.Join(c.buildDir, "trace-"+workload+".jsonl")
}

func (c *config) ensureShardd() error {
	if c.sharddBin != "" {
		return nil
	}
	bin, err := buildShardd(c.root, c.buildDir)
	c.sharddBin = bin
	return err
}

// outcome is what one run of one workload produced.
type outcome struct {
	setup   []float64 // seconds, one per timed set-up
	segs    []segResult
	peakRSS float64
	// openLoop makes the SLO and lateness accounting apply.
	openLoop bool
	// checks lists every correctness invariant that did not hold; each
	// makes the run incorrect and the exit code non-zero.
	checks []string
	// layer carries the per-layer numbers only this workload can
	// supply (lock event rates, fairness, optimistic outcomes).
	layer map[string]float64
	spans []*spanBuf
}

func (o *outcome) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// sloLimit is the open-loop latency limit: a request that is not
// answered within it of its due time has missed the SLO.
const sloLimit = time.Millisecond

// lateLimitUS is the generator-lateness validity limit: an open-loop
// run whose median request was sent this late measured the generator,
// not shardd (Go's timer floor alone makes it 500 µs), and is reported
// invalid. The tail of the lateness is reported but not gated: on a
// shared two-CPU host it is the hypervisor's, and a benchmark that
// fails on a noisy neighbour gates nothing.
const lateLimitUS = 100

// workloadFuncs maps BENCHMARK.json's workload names to their runners.
// traced has one entry per measured segment.
var workloadFuncs = map[string]func(c *config, traced []bool) (*outcome, error){
	"lock_oversub":     runLockOversub,
	"map_read_zipf":    runMapReadZipf,
	"map_hot_write":    runMapHotWrite,
	"served_pipelined": runServedPipelined,
	"served_openloop":  runServedOpenLoop,
}

// endToEnd reduces an outcome to the end-to-end metrics, and the two
// latency percentiles that are reported per layer: each segment yields
// one value per metric and the median of the segments is what is
// reported.
func endToEnd(o *outcome) (map[string]stat, uint64, uint64) {
	per := map[string][]float64{}
	var attempted, failed uint64
	for _, s := range o.segs {
		attempted += s.attempted
		failed += s.failed
		done := float64(s.completed())
		lat := mergeSorted(s.parts...)
		per["ops_s"] = append(per["ops_s"], done/s.wall.Seconds())
		per["p50_us"] = append(per["p50_us"], us(lat, 50))
		per["p99_us"] = append(per["p99_us"], tailUS(lat))
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], float64(s.cpu.Microseconds())/done)
		per["ok_frac"] = append(per["ok_frac"], 1-ratio(s.failed, s.attempted))
		per["deadline_met_frac"] = append(per["deadline_met_frac"], 1-ratio(s.dlMissed, s.dlAttempted))
		slo := 1.0
		if o.openLoop {
			slo = 1 - ratio(s.sloMissed, s.attempted)
		}
		per["slo_met_frac"] = append(per["slo_met_frac"], slo)
	}
	out := map[string]stat{
		"setup_s":     summarize(o.setup),
		"peak_rss_mb": exact(o.peakRSS),
	}
	for name, vals := range per {
		out[name] = summarize(vals)
	}
	return out, attempted, failed
}

// ratio is a/b, and 0 when nothing was attempted: a workload with no
// deadlined ops missed no deadline.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
