//go:build linux

// Command benchmark is the repository's one performance harness: five
// named workloads, nine end-to-end metrics and a ladder of per-layer
// metrics from lock up to server. BENCHMARK.json at the module root is
// its catalogue — workloads, metric names, units, directions and
// regression bounds — and README.md beside this file explains each
// choice.
//
//	go run ./benchmark                         every workload, untraced then traced, and the ladder
//	go run ./benchmark -repeat 3               the untraced set three times (for -compare)
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1
//
// The last form is the driver's: one workload per process, the result
// as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// segments is how many measured segments make one run; the value a run
// reports is the median of its segments.
const segments = 5

// catalog is BENCHMARK.json.
type catalog struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadCatalog(root string) (*catalog, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// moduleRoot walks up from the working directory to the directory that
// holds go.mod, so the benchmark runs from the root and its tests from
// the package directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// run is main without the exit, so the smoke test can call it.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload and print its result as JSON on the last line")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "measured seconds per run, split into five segments (0 = run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		repeat   = fs.Int("repeat", 1, "run the untraced set this many times")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		smoke    = fs.Bool("smoke", false, "shrink every size so the whole benchmark passes in seconds; the numbers mean nothing")
		results  = fs.String("results", "", "directory for the result file and history.jsonl (default benchmark/results)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	root, err := moduleRoot()
	if err != nil {
		return 2, err
	}
	cat, err := loadCatalog(root)
	if err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		return compareFiles(out, cat, fs.Arg(0), fs.Arg(1))
	}

	// Load is sized for the machine: one generator process, at most four
	// Ps, and oversubscription only ever in goroutines.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	if *seconds == 0 {
		*seconds = float64(cat.RunSeconds)
	}
	c := &config{
		seed:      *seed,
		segLen:    time.Duration(*seconds / segments * float64(time.Second)),
		warm:      time.Second,
		probe:     time.Second,
		nseg:      segments,
		setups:    3,
		keys:      1 << 20,
		streamLen: 1 << 20,
		warmOps:   1 << 16,
		ladderOps: 1 << 18,
		nproc:     nproc,
		root:      root,
		buildDir:  filepath.Join(root, ".bench_build"),
	}
	if *smoke {
		c.smoke = true
		c.segLen, c.warm, c.probe = 200*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond
		c.nseg, c.setups = 2, 1
		c.keys, c.streamLen, c.warmOps, c.ladderOps = 1<<14, 1<<14, 1<<10, 1<<12
	}
	if *results == "" {
		*results = filepath.Join(root, "benchmark", "results")
	}
	if err := os.MkdirAll(c.buildDir, 0o755); err != nil {
		return 2, err
	}
	rep := &reporter{out: out, cat: cat}

	if *workload != "" {
		return runOne(c, rep, *workload, *trace == 1)
	}
	return runAll(c, rep, *repeat, *results)
}

// runOne is the driver's mode.
func runOne(c *config, rep *reporter, name string, traced bool) (int, error) {
	if _, ok := workloadFuncs[name]; !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	var res result
	var err error
	if traced {
		res, _, err = tracedRun(c, rep, name, true)
	} else {
		res, _, err = untracedRun(c, rep, name)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(rep.out, "%s\n", line)
	if !res.Correct {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}

// runAll is the one-command mode: every workload untraced (repeat
// times), then every workload traced, then the ladder; the record is
// written to the results directory and appended to its history.
func runAll(c *config, rep *reporter, repeat int, resultsDir string) (int, error) {
	rec := record{
		Fingerprint: hostFingerprint(c.root),
		When:        time.Now().UTC().Format(time.RFC3339),
		Seed:        c.seed,
		Seconds:     (time.Duration(c.nseg) * c.segLen).Seconds(),
		PerLayer:    map[string]map[string]stat{},
	}
	correct := true
	for i := 0; i < repeat; i++ {
		runStats := map[string]map[string]stat{}
		for _, w := range rep.cat.Workloads {
			res, stats, err := untracedRun(c, rep, w.Name)
			if err != nil {
				return 1, err
			}
			correct = correct && res.Correct
			runStats[w.Name] = stats
		}
		rec.Runs = append(rec.Runs, runStats)
	}
	for _, w := range rep.cat.Workloads {
		res, vals, err := tracedRun(c, rep, w.Name, false)
		if err != nil {
			return 1, err
		}
		correct = correct && res.Correct
		rec.PerLayer[w.Name] = vals
	}
	l, err := runLadder(c)
	if err != nil {
		return 1, err
	}
	rep.section("ladder: every layer timed from outside, seed %d", c.seed)
	rep.perLayer("", l.vals)
	rec.PerLayer["ladder"] = l.vals
	if err := writeTrace(c.tracePath("ladder"), "ladder", []*spanBuf{&l.spans}); err != nil {
		return 1, err
	}
	if err := rep.complete(); err != nil {
		return 1, err
	}
	if err := rec.save(resultsDir); err != nil {
		return 1, err
	}
	if !correct {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}

// result is the driver's JSON object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// untracedRun measures one workload with tracing off and prints its
// end-to-end metrics.
func untracedRun(c *config, rep *reporter, name string) (result, map[string]stat, error) {
	o, err := workloadFuncs[name](c, make([]bool, c.nseg))
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	stats, attempted, failed := endToEnd(o)
	rep.section("%s: end to end, tracing off, seed %d, %d segments of %v", name, c.seed, c.nseg, c.segLen)
	if o.openLoop {
		p50, p99 := lateness(o.segs)
		rep.note("generator lateness p50 %.1f us (limit %d), p99 %.1f us", p50, lateLimitUS, p99)
		if p50 > lateLimitUS && !c.smoke {
			o.failf("%s: generator ran %.1f us late at the median (limit %d): the run measured the generator, not shardd", name, p50, lateLimitUS)
		}
	}
	res := result{Correct: len(o.checks) == 0 && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: rep.endToEnd(name, stats)}
	rep.note("latency p50 %.3f us, p99 %.3f us (per-layer metrics: they do not repeat within a bound on every workload)",
		stats["p50_us"].Median, stats["p99_us"].Median)
	if lwss, ok := o.layer["lock.lwss"]; ok {
		// The paper never reports throughput alone (§6).
		rep.note("ops_s %.0f beside LWSS %.2f, MTTR %.1f, Gini %.3f", stats["ops_s"].Median,
			lwss, o.layer["lock.mttr"], o.layer["lock.gini"])
	}
	rep.checks(o.checks)
	return res, stats, nil
}

// lateness returns the open-loop generator's median-of-segments send
// lateness, in microseconds.
func lateness(segs []segResult) (p50, p99 float64) {
	var a, b []float64
	for _, s := range segs {
		late := mergeSorted(s.late)
		a, b = append(a, us(late, 50)), append(b, tailUS(late))
	}
	return summarize(a).Median, summarize(b).Median
}

// tracedRun measures one workload with tracing on in every other
// segment, writes the spans to a file, and prints the per-layer
// metrics. With ladder set (the driver's -trace 1) the ladder runs too,
// so that the one process reports every per-layer metric.
func tracedRun(c *config, rep *reporter, name string, ladder bool) (result, map[string]stat, error) {
	tc := *c
	tc.setups = 1
	traced := make([]bool, c.nseg)
	for i := range traced {
		traced[i] = i%2 == 1
	}
	o, err := workloadFuncs[name](&tc, traced)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	var on, off []float64
	var tot segAcc
	for i, s := range o.segs {
		ops := float64(s.completed()) / s.wall.Seconds()
		if traced[i] {
			on = append(on, ops)
		} else {
			off = append(off, ops)
		}
		tot.attempted += s.attempted
		tot.failed += s.failed
		tot.dlAttempted += s.dlAttempted
		tot.dlMissed += s.dlMissed
		tot.sloMissed += s.sloMissed
	}
	lat, _, _ := endToEnd(o)
	vals := map[string]stat{
		"p50_us":                      lat["p50_us"],
		"p99_us":                      lat["p99_us"],
		"loadgen.trace_overhead_frac": exact(1 - summarize(on).Median/summarize(off).Median),
		"failed_frac":                 exact(ratio(tot.failed, tot.attempted)),
		"deadline_miss_frac":          exact(ratio(tot.dlMissed, tot.dlAttempted)),
		"slo_miss_frac":               exact(0),
	}
	if o.openLoop {
		vals["slo_miss_frac"] = exact(ratio(tot.sloMissed, tot.attempted))
	}
	bufs := o.spans
	rep.section("%s: traced run, seed %d, tracing on in every other segment", name, c.seed)
	if ladder {
		l, err := runLadder(c)
		if err != nil {
			return result{}, nil, err
		}
		for k, v := range l.vals {
			vals[k] = v
		}
		bufs = append(bufs, &l.spans)
	}
	if err := writeTrace(c.tracePath(name), name, bufs); err != nil {
		return result{}, nil, err
	}
	rep.note("spans written to %s", c.tracePath(name))
	res := result{Correct: len(o.checks) == 0 && tot.failed == 0, Attempted: tot.attempted, Failed: tot.failed,
		Metrics: rep.perLayer(name, vals)}
	rep.checks(o.checks)
	if ladder {
		if err := rep.complete(); err != nil {
			return result{}, nil, err
		}
	}
	return res, vals, nil
}

// reporter prints metrics by name with their units, looked up in the
// catalogue, and remembers which names it has printed.
type reporter struct {
	out     io.Writer
	cat     *catalog
	printed map[string]int
}

func (r *reporter) section(format string, args ...any) {
	fmt.Fprintf(r.out, "\n== "+format+"\n", args...)
}

func (r *reporter) note(format string, args ...any) {
	fmt.Fprintf(r.out, "   "+format+"\n", args...)
}

func (r *reporter) checks(failed []string) {
	if len(failed) == 0 {
		r.note("correctness checks passed")
	}
	for _, f := range failed {
		r.note("CHECK FAILED: %s", f)
	}
}

// line prints one metric and returns its JSON form.
func (r *reporter) line(prefix string, m metricSpec, s stat) value {
	if r.printed == nil {
		r.printed = map[string]int{}
	}
	name := m.Name
	if prefix != "" {
		name = prefix + "/" + m.Name
	}
	r.printed[name]++
	if prefix != "" {
		r.printed[m.Name]++ // complete looks names up bare
	}
	bound := ""
	if m.Bound > 0 {
		bound = fmt.Sprintf("  bound %g", m.Bound)
	}
	fmt.Fprintf(r.out, "%-52s %16.4f %-6s  [q1 %.4f  q3 %.4f  n=%d]  better: %s%s\n",
		name, s.Median, m.Unit, s.Q1, s.Q3, s.N, m.Better, bound)
	return value{Value: s.Median, Unit: m.Unit}
}

// endToEnd prints every end-to-end metric of one workload. A metric the
// run did not produce is a bug in the benchmark and panics.
func (r *reporter) endToEnd(workload string, stats map[string]stat) map[string]value {
	out := map[string]value{}
	for _, m := range r.cat.EndToEnd {
		s, ok := stats[m.Name]
		if !ok {
			panic("benchmark: no value for end-to-end metric " + m.Name)
		}
		out[m.Name] = r.line(workload, m, s)
	}
	return out
}

// perLayer prints the per-layer metrics present in vals, in catalogue
// order, and rejects a value the catalogue does not name. Names the
// ladder measured carry no workload prefix: they do not depend on it.
func (r *reporter) perLayer(workload string, vals map[string]stat) map[string]value {
	out := map[string]value{}
	known := map[string]bool{}
	for _, m := range r.cat.PerLayer {
		known[m.Name] = true
		if s, ok := vals[m.Name]; ok {
			prefix := ""
			if workloadScoped[m.Name] {
				prefix = workload
			}
			out[m.Name] = r.line(prefix, m, s)
		}
	}
	var stray []string
	for name := range vals {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		panic(fmt.Sprint("benchmark: per-layer values missing from BENCHMARK.json: ", stray))
	}
	return out
}

// workloadScoped names the per-layer metrics that come from the
// workload's own traced run rather than from the ladder.
var workloadScoped = map[string]bool{
	"p50_us":                      true,
	"p99_us":                      true,
	"loadgen.trace_overhead_frac": true,
	"failed_frac":                 true,
	"deadline_miss_frac":          true,
	"slo_miss_frac":               true,
}

// complete checks that every per-layer metric of the catalogue was
// printed: a name in BENCHMARK.json that nothing measures is a bug.
func (r *reporter) complete() error {
	var missing []string
	for _, m := range r.cat.PerLayer {
		if r.printed[m.Name] == 0 {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("per-layer metrics in BENCHMARK.json that nothing measured: %v", missing)
	}
	return nil
}
