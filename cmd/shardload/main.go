// Command shardload is the open-loop remote load generator for shardd:
// Poisson arrivals, zipf or uniform key popularity, a read/write/scan
// mix, per-request deadline distribution with request classes, and
// connection churn — the arrival process the paper's admission story
// needs, generated from outside the server's process so every deadline
// crosses the wire before it reaches a stripe lock. With -rate 0 the
// generator degrades to a closed loop: each connection issues as fast as
// its responses return.
//
// The request loop is internal/loadgen's Run over a loadgen.WireDial
// target, with the accounting rules stated in that package's comment; a
// cell lands in the internal/benchfmt JSON schema (-json). The lock,
// backend and read path under test are shardd's flags, so every service
// cell is a shardd started with the cell's flags and a shardload run
// against it. shardd serves Gets lock-free by default where the backend
// allows, so a cell that measures the stripe lock under Gets starts it
// with -read-path locked; the cell's read_path and optimistic_* fields
// say which path served.
//
// With -fault, the spec is parsed here and armed on the server over the
// FAULT verb on one timeline: the server runs the data-plane half (stalls
// inside stripe critical sections), the generator the harness half
// (hotkey reroutes its keys, surge dials extra connections), and the
// chaos record reports each from where it ran.
//
// Quickstart against a local shardd:
//
//	shardd -addr 127.0.0.1:7070 -metrics-addr 127.0.0.1:7071 -lock mcscr-stp &
//	shardload -addr 127.0.0.1:7070 -conns 8 -rate 20000 -duration 10s \
//	    -deadline 2ms -deadline-frac 0.5 -classes 2 -json cell.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/fault"
	"repro/internal/benchfmt"
	"repro/internal/loadgen"
	"repro/shard"
	"repro/wire"
)

func main() {
	var (
		c     loadgen.Traffic
		ch    loadgen.Chaos
		addr  string
		fspec string
	)
	flag.StringVar(&addr, "addr", "127.0.0.1:7070", "shardd wire address")
	flag.IntVar(&c.Workers, "conns", 4, "concurrent connections")
	flag.DurationVar(&c.Duration, "duration", 5*time.Second, "measured run length")
	flag.Float64Var(&c.Rate, "rate", 0, "total target ops/sec, Poisson arrivals split across connections (0 = closed loop)")
	flag.Float64Var(&c.ReadFrac, "read-frac", 0.9, "fraction of point ops that are GETs (rest are PUTs)")
	flag.Float64Var(&c.ScanFrac, "scan-frac", 0, "fraction of requests that are SCANs (requires an ordered backend on the server)")
	flag.IntVar(&c.ScanSpan, "scan-span", 100, "key span of each SCAN")
	flag.IntVar(&c.Keys, "keys", 1<<16, "key space size")
	flag.StringVar(&c.Dist, "dist", "zipf", "key popularity: zipf or uniform")
	flag.Float64Var(&c.ZipfS, "zipf-s", 1.2, "zipf skew (must be > 1 for -dist zipf)")
	flag.DurationVar(&c.Deadline, "deadline", 0, "base per-request deadline; each deadlined request draws uniformly from [0.5d, 1.5d] (0 = no deadlines)")
	flag.Float64Var(&c.DeadlineFrac, "deadline-frac", 1.0, "fraction of requests that carry a deadline (with -deadline)")
	flag.IntVar(&c.Classes, "classes", 1, "spread deadlined requests across request classes 1..n (patient traffic stays class 0)")
	flag.DurationVar(&c.Churn, "churn", 0, "per-connection reconnect cadence (0 = stable connections)")
	flag.Uint64Var(&c.Seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&fspec, "fault", "", "fault set spec to arm on the server over the wire (see fault.New; empty = no chaos)")
	flag.DurationVar(&ch.After, "fault-after", time.Second, "warmup before arming -fault")
	flag.DurationVar(&ch.For, "fault-for", 2*time.Second, "how long -fault stays armed")
	flag.DurationVar(&ch.Sample, "fault-sample", 100*time.Millisecond, "chaos miss-rate sample cadence")
	flag.Float64Var(&ch.Target, "fault-target", 0.05, "miss rate at or below which the cell counts as recovered")
	jsonPath := flag.String("json", "", "write the benchfmt record to this path")
	flag.Parse()

	if c.Workers <= 0 || c.Keys <= 0 || c.Duration <= 0 {
		fatalf("need -conns, -keys, -duration > 0")
	}
	if c.Classes < 1 || c.Classes > shard.NumClasses-1 {
		fatalf("-classes must be in [1, %d]", shard.NumClasses-1)
	}
	var chaos *loadgen.Chaos
	if fspec != "" {
		set, err := fault.New(fspec)
		if err != nil {
			fatalf("%v", err)
		}
		ch.Set = set
		chaos = &ch
	}
	if err := c.Validate(chaos); err != nil {
		fatalf("%v", err)
	}

	// One admin connection up front: fail fast if the server is absent.
	admin, err := wire.Dial(addr)
	if err != nil {
		fatalf("dial %s: %v", addr, err)
	}
	defer admin.Close()
	if err := admin.Ping(); err != nil {
		fatalf("ping: %v", err)
	}
	r, dialErrs := runCell(c, chaos, addr, admin)

	rec := c.Record(chaos)
	rec.Remote = &benchfmt.Remote{
		Addr:  addr,
		Conns: c.Workers,
		Churn: c.Churn.String(),
	}
	rec.Results = []benchfmt.Result{r}

	printSummary(r, dialErrs)
	if *jsonPath != "" {
		if err := benchfmt.WriteJSON(*jsonPath, rec); err != nil {
			fatalf("%v", err)
		}
	}
}

// runCell drives c at the shardd on addr and returns the cell and the
// generator's reconnect errors. INFO is read before and after the run:
// identity comes from the later one, the counter columns from the
// difference — the run's interval, read over the wire.
func runCell(c loadgen.Traffic, chaos *loadgen.Chaos, addr string, admin *wire.Client) (benchfmt.Result, int) {
	before, _ := serverInfo(admin)
	if chaos != nil {
		armOverWire(chaos, admin)
	}
	res := loadgen.Run(c, loadgen.WireDial(addr), chaos)
	if res.Chaos != nil {
		serverStalls(res.Chaos, admin)
	}
	after, info := serverInfo(admin)

	r := benchfmt.Result{
		Lock:     info["lock"],
		Backend:  info["backend"],
		ReadPath: info["read_path"],
		Stripes:  atoi(info["stripes"]),
	}
	res.Fill(c, after.Sub(before), &r)
	return r, res.DialErrors
}

// armOverWire puts the data-plane half of ch's fault on ch's timeline:
// shardd arms the same spec over the FAULT verb when the local set arms.
func armOverWire(ch *loadgen.Chaos, admin *wire.Client) {
	ch.Arm = func() {
		if err := admin.FaultArm(ch.Set.String()); err != nil {
			fatalf("fault arm: %v", err)
		}
	}
	ch.Disarm = func() {
		if err := admin.FaultDisarm(); err != nil {
			fatalf("fault disarm: %v", err)
		}
	}
}

// serverStalls overwrites cr's critical-section evidence with the
// server's: InCS ran there, not in the local set.
func serverStalls(cr *benchfmt.ChaosResult, admin *wire.Client) {
	if txt, err := admin.FaultStats(); err == nil {
		st := parseKV(txt)
		cr.Stalls = uint64(atoi(st["stalls"]))
		cr.StallMillis = float64(atoi(st["stall_ms"]))
	}
}

// serverInfo fetches INFO as its cumulative counters and its key=value
// lines.
func serverInfo(admin *wire.Client) (shard.Counters, map[string]string) {
	text, err := admin.Info()
	if err != nil {
		fatalf("info: %v", err)
	}
	counters, err := shard.ParseCounters(text)
	if err != nil {
		fatalf("info: %v", err)
	}
	return counters, parseKV(text)
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

func printSummary(r benchfmt.Result, dialErrs int) {
	fmt.Printf("shardload: %d ops (%.0f/s), p50 %.0fus p99 %.0fus", r.Ops, r.OpsPerSec, r.P50Micros, r.P99Micros)
	if r.DeadlineAttempts > 0 {
		fmt.Printf(", deadline %d/%d missed (%.2f%%)", r.DeadlineMisses, r.DeadlineAttempts, 100*r.MissRate)
	}
	if dialErrs > 0 {
		fmt.Printf(", %d reconnect errors", dialErrs)
	}
	fmt.Println()
	if line := r.OptimisticLine(); line != "" {
		fmt.Println("shardload: " + line)
	}
	if ch := r.Chaos; ch != nil {
		rec := "never"
		if ch.RecoveryMillis >= 0 {
			rec = fmt.Sprintf("%.0fms", ch.RecoveryMillis)
		}
		fmt.Printf("shardload: chaos %s — miss rate pre %.2f%% fault %.2f%% post %.2f%%, recovery %s, stalls %d (%.0fms injected), reroutes %d, surge peak %d\n",
			ch.Fault, 100*ch.PreMissRate, 100*ch.FaultMissRate, 100*ch.PostMissRate, rec, ch.Stalls, ch.StallMillis, ch.Reroutes, ch.SurgePeak)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shardload: "+format+"\n", args...)
	os.Exit(2)
}
