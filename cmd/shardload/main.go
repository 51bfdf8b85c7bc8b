// Command shardload is the open-loop remote load generator for shardd:
// Poisson arrivals, zipf or uniform key popularity, a read/write/scan
// mix, per-request deadline distribution with request classes, and
// connection churn — the arrival process the paper's admission story
// needs, generated from outside the server's process so every deadline
// crosses the wire before it reaches a stripe lock.
//
// Open loop means arrivals are scheduled by the rate, not by the
// server's responses: a request that finds the server slow still counts
// its latency from its scheduled arrival time, so queueing delay the
// server causes is charged to the server (no coordinated omission).
// With -rate 0 the generator degrades to a closed loop: each connection
// issues as fast as its responses return.
//
// Cells land in the same benchfmt JSON schema as cmd/shardbench
// (-json/-append), so BENCH_shard.json stays one comparable series
// whether a cell was driven in-process or over the wire. With -fault,
// the generator arms the spec on the server over the FAULT verb at
// -fault-after, disarms it -fault-for later, and reports the same
// chaos phase accounting shardbench reports — the PR 6 chaos timeline,
// end-to-end over the network.
//
// Quickstart against a local shardd:
//
//	shardd -addr 127.0.0.1:7070 -metrics-addr 127.0.0.1:7071 -policy slo &
//	shardload -addr 127.0.0.1:7070 -conns 8 -rate 20000 -duration 10s \
//	    -deadline 2ms -deadline-frac 0.5 -classes 2 -json BENCH_shard.json -append
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/loadgen"
	"repro/shard"
	"repro/wire"
)

type config struct {
	addr     string
	conns    int
	duration time.Duration
	rate     float64 // total target ops/sec across all connections; 0 = closed loop
	readFrac float64
	scanFrac float64
	scanSpan int
	keys     int
	dist     string
	zipfS    float64
	deadline time.Duration
	dlFrac   float64
	classes  int
	churn    time.Duration
	seed     uint64

	fault       string
	faultAfter  time.Duration
	faultFor    time.Duration
	faultSample time.Duration
	faultTarget float64
}

// counters is the workers' shared accounting; the chaos supervisor
// samples it the same way shardbench's samples its in-process twins.
type counters struct {
	ops      atomic.Int64
	scans    atomic.Int64
	rejected atomic.Int64
	attempts atomic.Int64 // requests sent carrying a deadline
	misses   atomic.Int64 // StatusDeadline replies
	ioErrs   atomic.Int64 // reconnects forced by I/O errors
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", "127.0.0.1:7070", "shardd wire address")
	flag.IntVar(&c.conns, "conns", 4, "concurrent connections")
	flag.DurationVar(&c.duration, "duration", 5*time.Second, "measured run length")
	flag.Float64Var(&c.rate, "rate", 0, "total target ops/sec, Poisson arrivals split across connections (0 = closed loop)")
	flag.Float64Var(&c.readFrac, "read-frac", 0.9, "fraction of point ops that are GETs (rest are PUTs)")
	flag.Float64Var(&c.scanFrac, "scan-frac", 0, "fraction of requests that are SCANs (requires an ordered backend on the server)")
	flag.IntVar(&c.scanSpan, "scan-span", 100, "key span of each SCAN")
	flag.IntVar(&c.keys, "keys", 1<<16, "key space size")
	flag.StringVar(&c.dist, "dist", "zipf", "key popularity: zipf or uniform")
	flag.Float64Var(&c.zipfS, "zipf-s", 1.2, "zipf skew (must be > 1 for -dist zipf)")
	flag.DurationVar(&c.deadline, "deadline", 0, "base per-request deadline; each deadlined request draws uniformly from [0.5d, 1.5d] (0 = no deadlines)")
	flag.Float64Var(&c.dlFrac, "deadline-frac", 1.0, "fraction of requests that carry a deadline (with -deadline)")
	flag.IntVar(&c.classes, "classes", 1, "spread deadlined requests across request classes 1..n (patient traffic stays class 0)")
	flag.DurationVar(&c.churn, "churn", 0, "per-connection reconnect cadence (0 = stable connections)")
	flag.Uint64Var(&c.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&c.fault, "fault", "", "fault set spec to arm on the server over the wire (see fault.New; empty = no chaos)")
	flag.DurationVar(&c.faultAfter, "fault-after", time.Second, "warmup before arming -fault")
	flag.DurationVar(&c.faultFor, "fault-for", 2*time.Second, "how long -fault stays armed")
	flag.DurationVar(&c.faultSample, "fault-sample", 100*time.Millisecond, "chaos miss-rate sample cadence")
	flag.Float64Var(&c.faultTarget, "fault-target", 0.05, "miss rate at or below which the cell counts as recovered")
	jsonPath := flag.String("json", "", "write the benchfmt record to this path")
	appendJSON := flag.Bool("append", false, "append the record to -json as a JSON array instead of overwriting")
	flag.Parse()

	if c.conns <= 0 || c.keys <= 0 || c.duration <= 0 {
		fatalf("need -conns, -keys, -duration > 0")
	}
	if c.classes < 1 || c.classes > shard.NumClasses-1 {
		fatalf("-classes must be in [1, %d]", shard.NumClasses-1)
	}
	if c.dist != "zipf" && c.dist != "uniform" {
		fatalf("-dist must be zipf or uniform")
	}
	if c.dist == "zipf" && c.zipfS <= 1 {
		// rand.NewZipf returns nil for s <= 1; fall back explicitly
		// rather than silently serving uniform keys under a zipf label.
		fatalf("-zipf-s must be > 1 (got %g); use -dist uniform for flat popularity", c.zipfS)
	}
	if c.scanFrac > 0 && c.scanSpan < 1 {
		fatalf("-scan-span must be positive")
	}
	if c.fault != "" && c.faultAfter+c.faultFor >= c.duration {
		fatalf("-fault timeline (%v + %v) must fit inside -duration %v with room to recover",
			c.faultAfter, c.faultFor, c.duration)
	}

	// One admin connection up front: fail fast if the server is absent,
	// and capture its INFO identity for the record.
	admin, err := wire.Dial(c.addr)
	if err != nil {
		fatalf("dial %s: %v", c.addr, err)
	}
	defer admin.Close()
	if err := admin.Ping(); err != nil {
		fatalf("ping: %v", err)
	}
	infoText, err := admin.Info()
	if err != nil {
		fatalf("info: %v", err)
	}
	info := parseKV(infoText)
	// The pre-run INFO doubles as the optimistic counter baseline: the
	// server's opt_* lines are cumulative, so the cell's numbers are the
	// end-minus-start delta — the same interval accounting shardbench
	// gets from a snapshot delta, read over the wire.
	startInfo := info

	var cnt counters
	var stop atomic.Bool
	lats := make([][]int64, c.conns)
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lats[id] = runWorker(c, id, &cnt, &stop)
		}(i)
	}

	var chaosCh chan *benchfmt.ChaosResult
	if c.fault != "" {
		chaosCh = make(chan *benchfmt.ChaosResult, 1)
		go func() { chaosCh <- runChaos(c, admin, &cnt, &stop) }()
	}

	start := time.Now()
	time.Sleep(c.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var chaos *benchfmt.ChaosResult
	if chaosCh != nil {
		chaos = <-chaosCh
	}
	// INFO again after the run: swaps and live specs reflect anything
	// the server's controller did while we were storming it.
	if txt, err := admin.Info(); err == nil {
		info = parseKV(txt)
	}

	r := benchfmt.Result{
		Dist:          c.dist,
		Lock:          info["lock"],
		Backend:       info["backend"],
		ReadPath:      info["read_path"],
		Policy:        info["policy"],
		Stripes:       atoi(info["stripes"]),
		Threads:       c.conns,
		Duration:      elapsed.Seconds(),
		Ops:           int(cnt.ops.Load()),
		OpsPerSec:     float64(cnt.ops.Load()) / elapsed.Seconds(),
		Scans:         int(cnt.scans.Load()),
		ScansRejected: int(cnt.rejected.Load()),
		Swaps:         atoi(info["swaps"]),
		Chaos:         chaos,
	}
	var merged []int64
	for _, l := range lats {
		merged = append(merged, l...)
	}
	r.P50Micros = benchfmt.PercentileMicros(merged, 0.50)
	r.P99Micros = benchfmt.PercentileMicros(merged, 0.99)
	if n := cnt.attempts.Load(); n > 0 {
		r.DeadlineAttempts = int(n)
		r.DeadlineMisses = int(cnt.misses.Load())
		r.MissRate = benchfmt.Rate(r.DeadlineMisses, r.DeadlineAttempts)
	}
	// Optimistic outcomes for the run: end-minus-start INFO counters
	// (clamped at zero in case the map was reconfigured under us).
	sub := func(key string) int {
		if d := atoi(info[key]) - atoi(startInfo[key]); d > 0 {
			return d
		}
		return 0
	}
	r.OptimisticHits = sub("opt_hits")
	r.OptimisticRetries = sub("opt_retries")
	r.OptimisticFallbacks = sub("opt_fallbacks")
	r.OptimisticHitRate = benchfmt.Rate(r.OptimisticHits, r.OptimisticHits+r.OptimisticFallbacks)
	r.OptimisticFallbackRate = benchfmt.Rate(r.OptimisticFallbacks, r.OptimisticHits+r.OptimisticFallbacks)

	rec := benchfmt.Record{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Keys:       c.keys,
		ReadFrac:   c.readFrac,
		ScanFrac:   c.scanFrac,
		ZipfS:      c.zipfS,
		Rate:       c.rate,
		Remote: &benchfmt.Remote{
			Addr:      c.addr,
			ConnModel: info["conn_model"],
			Conns:     c.conns,
			Churn:     c.churn.String(),
		},
		Results: []benchfmt.Result{r},
	}
	if c.scanFrac > 0 {
		rec.ScanSpan = c.scanSpan
	}
	if c.deadline > 0 {
		rec.Deadline = c.deadline.String()
	}
	if c.fault != "" {
		rec.Fault = c.fault
		rec.FaultAfter = c.faultAfter.String()
		rec.FaultFor = c.faultFor.String()
		rec.FaultSample = c.faultSample.String()
		rec.FaultTarget = c.faultTarget
	}

	printSummary(r, &cnt)
	if *jsonPath != "" {
		if err := benchfmt.WriteJSON(*jsonPath, rec, *appendJSON); err != nil {
			fatalf("%v", err)
		}
	}
}

// runWorker drives one connection until stop: Poisson-scheduled
// arrivals at rate/conns, synchronous request/response (responses keep
// the wire's in-order contract, so one in flight per connection), churn
// reconnects, and per-op latency measured from the scheduled arrival.
func runWorker(c config, id int, cnt *counters, stop *atomic.Bool) []int64 {
	rng := rand.New(rand.NewSource(int64(c.seed)*1315423911 + int64(id)))
	key := loadgen.KeyPicker(rng, c.dist, c.zipfS, c.keys)

	cl, err := wire.Dial(c.addr)
	if err != nil {
		cnt.ioErrs.Add(1)
		return nil
	}
	connectedAt := time.Now()
	reconnect := func() bool {
		cl.Close()
		if stop.Load() {
			return false
		}
		nc, err := wire.Dial(c.addr)
		if err != nil {
			cnt.ioErrs.Add(1)
			return false
		}
		cl = nc
		connectedAt = time.Now()
		return true
	}
	defer func() { cl.Close() }()

	perConnRate := c.rate / float64(c.conns)
	next := time.Now()
	lats := make([]int64, 0, 1<<14)
	seq := 0
	for !stop.Load() {
		if perConnRate > 0 {
			// Exponential inter-arrival: the open-loop Poisson schedule.
			next = next.Add(time.Duration(rng.ExpFloat64() / perConnRate * float64(time.Second)))
			if !loadgen.SleepUntil(next, stop) {
				break
			}
		} else {
			next = time.Now()
		}
		if c.churn > 0 && time.Since(connectedAt) >= c.churn {
			if !reconnect() {
				break
			}
		}

		var deadline time.Time
		if c.deadline > 0 && rng.Float64() < c.dlFrac {
			d := time.Duration((0.5 + rng.Float64()) * float64(c.deadline))
			deadline = time.Now().Add(d)
			cl.Class = uint8(1 + seq%c.classes)
			cnt.attempts.Add(1)
		} else {
			cl.Class = 0
		}
		seq++

		var err error
		switch p := rng.Float64(); {
		case c.scanFrac > 0 && p < c.scanFrac:
			// Same accounting as shardbench under the shared benchfmt
			// schema: only completed scans count as scans.
			_, err = scanOnce(cl, key(), c.scanSpan, deadline)
			switch {
			case err == nil:
				cnt.scans.Add(1)
			case isStatus(err, wire.ErrUnordered):
				cnt.rejected.Add(1)
				err = nil
			}
		case rng.Float64() < c.readFrac:
			_, _, err = cl.Get(key(), deadline)
		default:
			_, err = cl.Put(key(), uint64(id)<<32|uint64(seq), deadline)
		}

		switch {
		case err == nil:
		case isStatus(err, wire.ErrDeadline):
			cnt.misses.Add(1)
		case isStatus(err, wire.ErrDraining):
			return lats
		default:
			// I/O failure (or a protocol error): this connection is dead.
			// Reconnect and keep the schedule — an open-loop generator
			// does not stop arriving because one socket broke.
			if !reconnect() {
				return lats
			}
			continue
		}
		cnt.ops.Add(1)
		lats = append(lats, time.Since(next).Nanoseconds())
	}
	return lats
}

// scanOnce scans span consecutive keys from lo — shardbench's
// key … key+span-1; the wire's bounds are inclusive on both ends.
func scanOnce(cl *wire.Client, lo uint64, span int, deadline time.Time) (pairs int, err error) {
	return cl.Scan(lo, lo+uint64(span)-1, 0, deadline, func(_, _ uint64) bool { return true })
}

// runChaos runs shardbench's chaos timeline over the wire: arm the fault
// set on the server after the warmup, sample the generator-side miss
// rate, disarm, and measure time-to-recovery from fault onset. The
// injected-fault evidence comes back over the FAULT stats verb.
func runChaos(c config, admin *wire.Client, cnt *counters, stop *atomic.Bool) *benchfmt.ChaosResult {
	cr := loadgen.Chaos{
		After: c.faultAfter, For: c.faultFor, Sample: c.faultSample, Target: c.faultTarget,
		Attempts: &cnt.attempts, Misses: &cnt.misses, Stop: stop,
		Arm: func() {
			if err := admin.FaultArm(c.fault); err != nil {
				fatalf("fault arm: %v", err)
			}
		},
		Disarm: func() {
			// A cell stopped mid-storm is already tearing down: only a
			// disarm on the timeline must succeed.
			if err := admin.FaultDisarm(); err != nil && !stop.Load() {
				fatalf("fault disarm: %v", err)
			}
		},
	}.Run()
	cr.Fault = c.fault
	if txt, err := admin.FaultStats(); err == nil {
		st := parseKV(txt)
		cr.Stalls = uint64(atoi(st["stalls"]))
		cr.StallMillis = float64(atoi(st["stall_ms"]))
		cr.Reroutes = uint64(atoi(st["reroutes"]))
		cr.SurgePeak = atoi(st["surge_peak"])
	}
	return cr
}

func isStatus(err error, sentinel *wire.StatusError) bool {
	if err == nil {
		return false
	}
	se, ok := err.(*wire.StatusError)
	return ok && se.Status == sentinel.Status
}

// parseKV parses "key=value" lines (INFO, FAULT stats).
func parseKV(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if k, v, ok := strings.Cut(strings.TrimSpace(line), "="); ok {
			out[k] = v
		}
	}
	return out
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func printSummary(r benchfmt.Result, cnt *counters) {
	fmt.Printf("shardload: %d ops (%.0f/s), p50 %.0fus p99 %.0fus", r.Ops, r.OpsPerSec, r.P50Micros, r.P99Micros)
	if r.DeadlineAttempts > 0 {
		fmt.Printf(", deadline %d/%d missed (%.2f%%)", r.DeadlineMisses, r.DeadlineAttempts, 100*r.MissRate)
	}
	if n := cnt.ioErrs.Load(); n > 0 {
		fmt.Printf(", %d reconnect errors", n)
	}
	fmt.Println()
	if r.OptimisticHits > 0 || r.OptimisticFallbacks > 0 {
		fmt.Printf("shardload: optimistic (%s) hits %d retries %d fallbacks %d (hit rate %.4f)\n",
			r.ReadPath, r.OptimisticHits, r.OptimisticRetries, r.OptimisticFallbacks, r.OptimisticHitRate)
	}
	if ch := r.Chaos; ch != nil {
		rec := "never"
		if ch.RecoveryMillis >= 0 {
			rec = fmt.Sprintf("%.0fms", ch.RecoveryMillis)
		}
		fmt.Printf("shardload: chaos %s — miss rate pre %.2f%% fault %.2f%% post %.2f%%, recovery %s, stalls %d (%.0fms injected)\n",
			ch.Fault, 100*ch.PreMissRate, 100*ch.FaultMissRate, 100*ch.PostMissRate, rec, ch.Stalls, ch.StallMillis)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shardload: "+format+"\n", args...)
	os.Exit(2)
}
