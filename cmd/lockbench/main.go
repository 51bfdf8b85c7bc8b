// Command lockbench benchmarks the real (goroutine) Malthusian lock
// library on the host machine: aggregate throughput plus the paper's
// fairness metrics (average LWSS, MTTR, Gini, RSTDDEV) over the recorded
// admission history.
//
// Locks are selected by registry spec (see lock.New), so every tunable is
// reachable from the command line without code changes:
//
//	lockbench -lock mcscr-stp -threads 8 -duration 2s
//	lockbench -lock 'mcscr-stp?fairness=500&seed=42' -threads 16
//	lockbench -lock all -threads 16 -ncs 2000   (every lock but null)
//	lockbench -lock all -json /tmp/locks.json
//
// With -cancel-frac F (and -cancel-after D), that fraction of
// acquisitions goes through LockContext with a deadline of D, and the
// table gains a cancel% column: the observed cancellation rate. This
// exercises the cancellation machinery under real contention and shows
// its cost to the surviving acquisitions.
//
// With -json, the results table (plus each lock's CR event counters) is
// also written to the named file as a machine-readable record of one run.
// The repository's performance trajectory is not kept here but in
// benchmark/results/history.jsonl (go run ./benchmark).
//
// Note: host-machine numbers demonstrate lock overheads and fairness
// behaviour, not the paper's hardware collapse curves — those come from
// cmd/figures (see DESIGN.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/lock"
	"repro/metrics"
)

// result is one benchmark row, shaped for both the stdout table and the
// -json record.
type result struct {
	Lock      string  `json:"lock"`
	Threads   int     `json:"threads"`
	Duration  float64 `json:"duration_sec"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	AvgLWSS   float64 `json:"avg_lwss"`
	MTTR      float64 `json:"mttr"`
	Gini      float64 `json:"gini"`
	RSTDDEV   float64 `json:"rstddev"`

	// Cancellation traffic, when -cancel-frac is set: attempts that used
	// LockContext, how many of them timed out, and the resulting rate.
	CancelAttempts int     `json:"cancel_attempts,omitempty"`
	Cancelled      int     `json:"cancelled,omitempty"`
	CancelRate     float64 `json:"cancel_rate,omitempty"`

	// CR event counters, when the lock exposes them.
	Stats map[string]uint64 `json:"stats,omitempty"`
}

// record is the top-level -json document: enough environment detail to
// compare two records across machines and changes.
type record struct {
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"num_cpu"`
	GoVersion   string   `json:"go_version"`
	NCS         int      `json:"ncs_spin"`
	CS          int      `json:"cs_spin"`
	CancelFrac  float64  `json:"cancel_frac,omitempty"`
	CancelAfter string   `json:"cancel_after,omitempty"`
	Results     []result `json:"results"`
}

func main() {
	var (
		name        = flag.String("lock", "mcscr-stp", "lock spec (see lock.New), or 'all'")
		threads     = flag.Int("threads", 8, "goroutines")
		duration    = flag.Duration("duration", time.Second, "measurement interval")
		ncs         = flag.Int("ncs", 500, "non-critical-section work (spin iterations)")
		cs          = flag.Int("cs", 100, "critical-section work (spin iterations)")
		seed        = flag.Uint64("seed", 1, "lock PRNG seed (unless the spec sets one)")
		cancelFrac  = flag.Float64("cancel-frac", 0, "fraction of acquisitions using LockContext with a deadline (0..1)")
		cancelAfter = flag.Duration("cancel-after", 50*time.Microsecond, "LockContext deadline for -cancel-frac acquisitions")
		jsonPath    = flag.String("json", "", "also write results to this file as JSON")
		list        = flag.Bool("list", false, "list registered lock specs with their summaries, then exit")
	)
	flag.Parse()

	if *list {
		for _, n := range lock.Names() {
			reg, _ := lock.Lookup(n)
			fmt.Printf("%-11s %s\n", n, reg.Summary)
		}
		return
	}

	specs := []string{*name}
	if *name == "all" {
		// null provides no exclusion, so the recorder it would guard races.
		specs = slices.DeleteFunc(lock.Names(), func(n string) bool { return n == "null" })
	}
	rec := record{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		NCS:        *ncs,
		CS:         *cs,
		CancelFrac: *cancelFrac,
	}
	if *cancelFrac > 0 {
		rec.CancelAfter = cancelAfter.String()
	}
	// Resolve every spec before any benchmark runs (or table output), so
	// a typo in a list fails fast instead of after minutes of measuring.
	locks := make([]lock.Mutex, len(specs))
	for i, spec := range specs {
		m, err := lock.New(spec, lock.WithSeed(*seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockbench: %v\n", err)
			os.Exit(2)
		}
		locks[i] = m
	}
	fmt.Printf("%-10s %10s %10s %8s %8s %8s %8s %8s\n",
		"lock", "ops", "ops/sec", "LWSS", "MTTR", "Gini", "RSTDDEV", "cancel%")
	for i, spec := range specs {
		rec.Results = append(rec.Results,
			run(spec, locks[i], *threads, *duration, *ncs, *cs, *cancelFrac, *cancelAfter))
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockbench: marshal: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lockbench: %v\n", err)
			os.Exit(1)
		}
	}
}

var sink atomic.Uint64

func spin(n int) {
	s := sink.Load()
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	sink.Store(s)
}

func run(name string, m lock.Mutex, threads int, d time.Duration, ncs, cs int,
	cancelFrac float64, cancelAfter time.Duration) result {
	cm, _ := m.(lock.ContextMutex) // every registry lock satisfies this
	rec := metrics.NewRecorder(1 << 20)
	var stop atomic.Bool
	var attempts, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for !stop.Load() {
				spin(ncs)
				if cancelFrac > 0 && cm != nil && rng.Float64() < cancelFrac {
					attempts.Add(1)
					ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
					err := cm.LockContext(ctx)
					cancel()
					if err != nil {
						cancelled.Add(1)
						continue
					}
				} else {
					m.Lock()
				}
				rec.Record(id) // serialized by the lock
				spin(cs)
				//lockcheck:ignore cm is m through a type assertion, an alias the lockset cannot prove
				m.Unlock()
			}
		}(g)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	h := rec.History()
	s := metrics.Summarize(h, metrics.DefaultWindow)
	r := result{
		Lock:      name,
		Threads:   threads,
		Duration:  d.Seconds(),
		Ops:       len(h),
		OpsPerSec: float64(len(h)) / d.Seconds(),
		AvgLWSS:   s.AvgLWSS,
		MTTR:      s.MTTR,
		Gini:      s.Gini,
		RSTDDEV:   s.RSTDDEV,
	}
	// The rate is derived only from a nonzero attempt count: a 0/0 division
	// here would put a NaN in the JSON record, which encoding/json rejects
	// outright — the whole -json write would fail, not just one field.
	cancelCol := "-" // no acquisition carried a deadline (e.g. -cancel-frac=0)
	if n := attempts.Load(); n > 0 {
		r.CancelAttempts = int(n)
		r.Cancelled = int(cancelled.Load())
		r.CancelRate = float64(cancelled.Load()) / float64(n)
		cancelCol = fmt.Sprintf("%.2f", 100*r.CancelRate)
	}
	fmt.Printf("%-10s %10d %10.0f %8.1f %8.1f %8.3f %8.3f %8s\n",
		name, len(h), float64(len(h))/d.Seconds(), s.AvgLWSS, s.MTTR, s.Gini, s.RSTDDEV,
		cancelCol)
	if sl, ok := m.(lock.Instrumented); ok {
		r.Stats = make(map[string]uint64)
		sl.Stats().Each(func(name string, v uint64) { r.Stats[name] = v })
	}
	return r
}
