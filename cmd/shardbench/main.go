// Command shardbench benchmarks the sharded KV service (package shard)
// under traffic shapes a served system actually sees: key skew (zipf vs
// uniform), a read/write mix, an optional scan mix, open-loop request
// arrival, and per-request deadlines. It sweeps stripe counts, per-stripe
// lock specs, and per-stripe backend specs, so the question the paper
// asks of a single lock — does admission policy keep a heavily shared
// lock from collapsing? — is asked of every stripe of a service at once,
// across every data structure that could serve the stripe:
//
//	shardbench -stripes 1,8,64 -lock tas,mcscr-stp -cancel-frac 0.2
//	shardbench -stripes 1,16 -lock 'mcscr-stp?fairness=500' -backend hashmap,skiplist,rbtree
//	shardbench -stripes 8 -backend skiplist -scan-frac 0.1 -scan-span 256
//	shardbench -stripes 8 -lock mcs-stp -dist zipf -policy static,malthusian
//	shardbench -read-frac 0.95 -read-path locked,optimistic -dist zipf
//	shardbench -list
//
// -read-path sweeps the Get path: "locked" routes every Get through the
// stripe lock; "optimistic[?retries=N]" serves seqlock-validated Gets
// without acquiring it (see package optimistic). Optimistic cells report
// hit/retry/fallback counts (and rates) in the JSON and an indented
// detail line; read them against the cell's "acquires" stat — on a
// read-heavy cell the acquires collapse to roughly the write volume
// while hits carry the reads, which is the whole point of the path.
//
// With -policy, each cell additionally runs a shard.Controller driving
// the named adaptation policy (see policy.New) at -adapt-interval: the
// controller snapshots the map, diffs, and live-reconfigures stripes the
// policy says are mis-specced — a zipf-hot stripe demoted to a culling
// lock by "malthusian", a scan-swamped stripe flipped to an ordered
// backend by "scanaware". The swaps column (and "swaps" JSON field)
// counts applied reconfigurations per cell; sweep "static,malthusian" to
// price adaptation against a frozen baseline on identical traffic.
//
// Workers issue Get/Put (and, with -scan-frac, ordered range scans)
// through the context forms, each request tagged with its worker id
// (shard.WithClientID), so every admission lands in the owning stripe's
// history and the JSON record can report fairness (LWSS, Gini) per
// stripe — which is where collapse shows up: a skewed keyspace collapses
// its hottest stripe long before the aggregate throughput says anything.
//
// Scans require an ordered backend ("skiplist", "rbtree"); a -scan-frac
// sweep that includes an unordered backend is rejected up front — unless
// a -policy runs, because a policy can install (or remove) an ordered
// backend mid-cell; scans refused with ErrUnordered are then counted in
// scans_rejected rather than failing the cell, so
//
//	shardbench -backend hashmap -scan-frac 0.3 -policy scanaware
//
// starts with every scan rejected and ends with the flipped stripes
// serving them. Each scan covers -scan-span consecutive keys from a
// point drawn from the key distribution and goes through ScanContext,
// so a scan visits every stripe and prices the cross-stripe merge
// against hashmap's cheaper point ops.
//
// Every completed request's latency — scheduled arrival (open loop) or
// issue time (closed loop) to completion, i.e. the time-to-stripe the
// deadline machinery bounds plus the bounded table work — is recorded,
// and the table and JSON report p50/p99 per cell alongside the
// deadline-miss rate ("-" when no request carried a deadline, never
// NaN). Deadline-missed requests are not in the percentile pool (their
// latency is clipped at -deadline by construction); they are accounted
// by the miss rate, so read the two columns together.
//
// With -rate R the arrival process is open-loop: each worker follows a
// Poisson schedule at R/threads requests/sec, and a request's deadline
// (and latency) is measured from its scheduled arrival, not from when a
// backlogged worker got to it — so falling behind schedule burns
// deadline budget, exactly like a queue in front of a real service.
// -rate 0 (default) is closed loop.
//
// With -fault, every cell runs a scripted chaos timeline (see fault.New
// for the spec grammar): the cell warms up healthy, the fault set is
// armed at -fault-after, disarmed -fault-for later, and the tail of the
// cell is the recovery window. Stall faults are injected inside the
// stripe critical section (Map.SetInjector), hotkey faults rewrite the
// workers' keys, and surge faults grow the worker pool with patient
// (deadline-free) extra hammerers while active. A sampler splits the
// deadline traffic into pre/fault/post phases and measures
// time-to-recovery: how long after fault onset the trailing miss rate
// (sampled every -fault-sample) stays at or below -fault-target for
// three consecutive samples. Sweeping -policy 'static,slo?...' over the
// same timeline prices the SLO-native controller against a frozen
// baseline on identical chaos:
//
//	shardbench -stripes 4 -lock mcs-stp -dist zipf -cancel-frac 0.2 -deadline 8ms \
//	  -duration 4s -fault 'stall?p=1&hold=1ms' -policy 'static,slo?hot=mcscr-stp'
//
// A static cell only "recovers" when the fault is lifted; an slo cell
// demotes the burning stripes to the culling lock and recovers while the
// stall is still being injected — the paper's claim, measured at the
// objective. The per-phase rates, recovery time, and injected-fault
// counters land in a "chaos" JSON object per cell and an indented detail
// line under the table row.
//
// The results are written to -json (default BENCH_shard.json; the copy at
// the repository root tracks the service-path perf trajectory alongside
// BENCH_locks.json). With -append, an existing -json file is extended to
// a JSON array of records instead of overwritten — so a chaos run can
// ride alongside the steady-state record.
package main

import (
	"context"
	"errors"
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

	"repro/fault"
	"repro/internal/benchfmt"
	"repro/internal/loadgen"
	"repro/lock"
	"repro/policy"
	"repro/shard"
	"repro/store"
)

func main() {
	var (
		stripesList = flag.String("stripes", "1,8,64", "comma-separated stripe counts to sweep")
		lockList    = flag.String("lock", "tas,mcscr-stp", "comma-separated lock specs (see lock.New)")
		backendList = flag.String("backend", "hashmap", "comma-separated backend specs (see store.New)")
		rpathList   = flag.String("read-path", "locked", "comma-separated Get read paths: locked, optimistic[?retries=N] (see optimistic.Parse)")
		distList    = flag.String("dist", "uniform,zipf", "comma-separated key distributions: uniform, zipf")
		threads     = flag.Int("threads", 8, "client goroutines")
		duration    = flag.Duration("duration", time.Second, "measurement interval per cell")
		keys        = flag.Int("keys", 1<<16, "keyspace size")
		readFrac    = flag.Float64("read-frac", 0.9, "fraction of non-scan requests that are Gets")
		scanFrac    = flag.Float64("scan-frac", 0, "fraction of requests that are ordered range scans (0..1; needs an ordered backend)")
		scanSpan    = flag.Int("scan-span", 128, "consecutive keys covered by each scan")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf skew parameter (s > 1)")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in requests/sec across all workers (0 = closed loop)")
		cancelFrac  = flag.Float64("cancel-frac", 0, "fraction of requests carrying a deadline (0..1)")
		deadline    = flag.Duration("deadline", time.Millisecond, "per-request deadline, measured from arrival")
		policyList  = flag.String("policy", "", "comma-separated adaptation policy specs to sweep (see policy.New; empty = no controller)")
		adaptEvery  = flag.Duration("adapt-interval", shard.DefaultControllerInterval, "controller snapshot cadence when -policy is set")
		faultSpec   = flag.String("fault", "", "fault set spec for a scripted chaos timeline in every cell (see fault.New; empty = no chaos)")
		faultAfter  = flag.Duration("fault-after", 0, "arm the fault set this long into each cell (0 = duration/4)")
		faultFor    = flag.Duration("fault-for", 0, "keep the fault set armed this long (0 = duration/2)")
		faultSample = flag.Duration("fault-sample", 25*time.Millisecond, "chaos sampler cadence for phase accounting and recovery detection")
		faultTarget = flag.Float64("fault-target", 0.05, "trailing miss rate at or below which the SLO counts as recovered")
		seed        = flag.Uint64("seed", 1, "base PRNG seed for locks, backends, and workload")
		jsonPath    = flag.String("json", "BENCH_shard.json", "write results to this file as JSON ('' disables)")
		appendJSON  = flag.Bool("append", false, "append the record to -json as a JSON array instead of overwriting")
		list        = flag.Bool("list", false, "list registered lock, backend, policy, and fault specs with their summaries, then exit")
	)
	flag.Parse()

	if *list {
		printRegistries(os.Stdout)
		return
	}

	stripeCounts, err := parseInts(*stripesList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardbench: -stripes: %v\n", err)
		os.Exit(2)
	}
	specs := splitList(*lockList)
	backends := splitList(*backendList)
	dists := splitList(*distList)
	for _, d := range dists {
		if d != "uniform" && d != "zipf" {
			fmt.Fprintf(os.Stderr, "shardbench: -dist: unknown distribution %q (want uniform or zipf)\n", d)
			os.Exit(2)
		}
		// rand.NewZipf returns nil for s <= 1, which would silently fall
		// back to uniform keys under a "zipf" label in the record.
		if d == "zipf" && *zipfS <= 1 {
			fmt.Fprintf(os.Stderr, "shardbench: -zipf-s: %v is out of range (want s > 1)\n", *zipfS)
			os.Exit(2)
		}
	}
	if *scanFrac > 0 && *scanSpan < 1 {
		fmt.Fprintf(os.Stderr, "shardbench: -scan-span: want a positive span\n")
		os.Exit(2)
	}
	// Resolve every cell before any measurement, so a typo — or a scan
	// mix over a backend that cannot serve scans — fails fast instead of
	// after minutes of sweeping. With a -policy the ordered requirement
	// is lifted: a policy can install (or remove) an ordered backend
	// mid-cell — that is scanaware's whole demo — so rejected scans
	// become a counted outcome instead of a config error.
	for _, bspec := range backends {
		b, err := store.New(bspec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(2)
		}
		if _, ordered := b.(store.Ordered); *scanFrac > 0 && !ordered && *policyList == "" {
			fmt.Fprintf(os.Stderr, "shardbench: -scan-frac needs ordered backends (or a -policy that can install one, e.g. scanaware), but %q is not (ordered: skiplist, rbtree)\n", bspec)
			os.Exit(2)
		}
	}
	for _, spec := range specs {
		if _, err := shard.New(shard.Config{Stripes: 1, LockSpec: spec}); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(2)
		}
	}
	rpaths := splitList(*rpathList)
	if len(rpaths) == 0 {
		rpaths = []string{""}
	}
	for _, rp := range rpaths {
		if _, err := shard.New(shard.Config{Stripes: 1, ReadPath: rp}); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(2)
		}
	}
	// "" is the no-controller cell; named policies are resolved up front
	// like locks and backends, so a typo fails before any measurement.
	policies := splitList(*policyList)
	if len(policies) == 0 {
		policies = []string{""}
	}
	for _, pspec := range policies {
		if pspec == "" {
			continue
		}
		if _, err := policy.New(pspec); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(2)
		}
	}
	// The chaos timeline is validated like everything else: spec up
	// front, and the Arm..Disarm window must leave a recovery tail inside
	// the cell — a fault that outlives the measurement proves nothing
	// about recovery.
	fAfter, fFor := *faultAfter, *faultFor
	if *faultSpec != "" {
		if _, err := fault.New(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(2)
		}
		if fAfter <= 0 {
			fAfter = *duration / 4
		}
		if fFor <= 0 {
			fFor = *duration / 2
		}
		if fAfter+fFor >= *duration {
			fmt.Fprintf(os.Stderr, "shardbench: -fault timeline (-fault-after %v + -fault-for %v) leaves no recovery tail inside -duration %v\n", fAfter, fFor, *duration)
			os.Exit(2)
		}
		if *faultSample <= 0 {
			fmt.Fprintf(os.Stderr, "shardbench: -fault-sample: want a positive cadence\n")
			os.Exit(2)
		}
		if *cancelFrac <= 0 {
			fmt.Fprintf(os.Stderr, "shardbench: warning: -fault without -cancel-frac: no request carries a deadline, so the chaos miss rates and recovery time will read empty\n")
		}
	}

	rec := benchfmt.Record{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Keys:       *keys,
		ReadFrac:   *readFrac,
		ScanFrac:   *scanFrac,
		ZipfS:      *zipfS,
		Rate:       *rate,
		CancelFrac: *cancelFrac,
	}
	if *scanFrac > 0 {
		rec.ScanSpan = *scanSpan
	}
	if *cancelFrac > 0 {
		rec.Deadline = deadline.String()
	}
	if *policyList != "" {
		rec.Adapt = adaptEvery.String()
	}
	if *faultSpec != "" {
		rec.Fault = *faultSpec
		rec.FaultAfter = fAfter.String()
		rec.FaultFor = fFor.String()
		rec.FaultSample = faultSample.String()
		rec.FaultTarget = *faultTarget
	}

	fmt.Printf("%-8s %-12s %-10s %-10s %-12s %7s %10s %10s %7s %8s %8s %7s %7s %6s\n",
		"dist", "lock", "backend", "rpath", "policy", "stripes", "ops", "ops/sec", "miss%", "p50(us)", "p99(us)", "LWSS", "Gini", "swaps")
	for _, dist := range dists {
		for _, spec := range specs {
			for _, bspec := range backends {
				for _, rp := range rpaths {
					for _, pspec := range policies {
						for _, n := range stripeCounts {
							r := runCell(cellConfig{
								dist: dist, spec: spec, backend: bspec, stripes: n,
								readPath: rp,
								threads:  *threads, duration: *duration,
								keys: *keys, readFrac: *readFrac, zipfS: *zipfS,
								scanFrac: *scanFrac, scanSpan: *scanSpan,
								rate: *rate, cancelFrac: *cancelFrac, deadline: *deadline,
								policy: pspec, adaptEvery: *adaptEvery,
								fault: *faultSpec, faultAfter: fAfter, faultFor: fFor,
								faultSample: *faultSample, faultTarget: *faultTarget,
								seed: *seed,
							})
							rec.Results = append(rec.Results, r)
							if r.ScansRejected > 0 && r.Scans == 0 {
								// The relaxed -scan-frac validation (any
								// -policy) admitted a cell whose policy never
								// installed an ordered backend: keep the old
								// fail-fast's intent audible.
								fmt.Fprintf(os.Stderr, "shardbench: warning: %s/%s/%s/%s stripes=%d: all %d scans rejected — the policy never installed an ordered backend\n",
									r.Dist, r.Lock, r.Backend, r.Policy, r.Stripes, r.ScansRejected)
							}
							missCol := "-"
							if r.DeadlineAttempts > 0 {
								missCol = fmt.Sprintf("%.2f", 100*r.MissRate)
							}
							policyCol := r.Policy
							if policyCol == "" {
								policyCol = "-"
							}
							fmt.Printf("%-8s %-12s %-10s %-10s %-12s %7d %10d %10.0f %7s %8.1f %8.1f %7.1f %7.3f %6d\n",
								r.Dist, r.Lock, r.Backend, r.ReadPath, policyCol, r.Stripes, r.Ops, r.OpsPerSec, missCol,
								r.P50Micros, r.P99Micros, r.MeanLWSS, r.MeanGini, r.Swaps)
							if r.OptimisticHits > 0 || r.OptimisticFallbacks > 0 {
								fmt.Printf("  optimistic: hits=%d retries=%d fallbacks=%d hit-rate=%.4f lock-acquires=%d\n",
									r.OptimisticHits, r.OptimisticRetries, r.OptimisticFallbacks,
									r.OptimisticHitRate, r.Stats["acquires"])
							}
							if ch := r.Chaos; ch != nil {
								recov := "never"
								if ch.RecoveryMillis >= 0 {
									recov = fmt.Sprintf("%.0fms", ch.RecoveryMillis)
								}
								fmt.Printf("  chaos: miss%% pre=%.2f fault=%.2f post=%.2f  recovery=%s  stalls=%d stall-time=%.0fms reroutes=%d surge-peak=%d\n",
									100*ch.PreMissRate, 100*ch.FaultMissRate, 100*ch.PostMissRate,
									recov, ch.Stalls, ch.StallMillis, ch.Reroutes, ch.SurgePeak)
							}
						}
					}
				}
			}
		}
	}

	if *jsonPath != "" {
		if err := benchfmt.WriteJSON(*jsonPath, rec, *appendJSON); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// printRegistries renders all four registries' canonical names with
// their Registration.Summary lines, uniformly: the four-registry design
// on one screen — pick your lock, pick your backend, pick the policy
// that re-picks both at runtime, pick the fault that tries to break all
// three.
func printRegistries(w *os.File) {
	section := func(title string, names []string, summary func(string) string) {
		fmt.Fprintln(w, title)
		for _, name := range names {
			fmt.Fprintf(w, "  %-11s %s\n", name, summary(name))
		}
	}
	section("locks (-lock; see lock.New for parameters):", lock.Names(), func(n string) string {
		reg, _ := lock.Lookup(n)
		return reg.Summary
	})
	section("backends (-backend; see store.New for parameters):", store.Names(), func(n string) string {
		reg, _ := store.Lookup(n)
		return reg.Summary
	})
	section("policies (-policy; see policy.New for parameters):", policy.Names(), func(n string) string {
		reg, _ := policy.Lookup(n)
		return reg.Summary
	})
	section("faults (-fault; see fault.New for parameters):", fault.Names(), func(n string) string {
		reg, _ := fault.Lookup(n)
		return reg.Summary
	})
}

type cellConfig struct {
	dist       string
	spec       string
	backend    string
	readPath   string // Get read path; "" = locked
	policy     string // adaptation policy spec; "" = no controller
	adaptEvery time.Duration
	stripes    int
	threads    int
	duration   time.Duration
	keys       int
	readFrac   float64
	zipfS      float64
	scanFrac   float64
	scanSpan   int
	rate       float64
	cancelFrac float64
	deadline   time.Duration
	seed       uint64

	// Chaos timeline; fault == "" disables it.
	fault       string
	faultAfter  time.Duration // Arm this long into the cell
	faultFor    time.Duration // Disarm this long after Arm
	faultSample time.Duration
	faultTarget float64
}

func runCell(c cellConfig) benchfmt.Result {
	// Per-stripe history cap scaled inversely with stripe count: admissions
	// spread across stripes, so this keeps total preallocated history
	// storage (which shard.New allocates up front to keep recording
	// allocation-free inside the critical section) at ~8 MB per cell while
	// still far exceeding any LWSS window.
	hcap := (1 << 20) / c.stripes
	if hcap < 1<<14 {
		hcap = 1 << 14
	}
	m := shard.MustNew(shard.Config{
		Stripes:     c.stripes,
		LockSpec:    c.spec,
		BackendSpec: c.backend,
		Seed:        c.seed,
		Capacity:    c.keys,
		HistoryCap:  hcap,
		ReadPath:    c.readPath,
	})
	// Preload the keyspace so Gets hit and Puts update in place; the
	// measured interval then exercises steady-state traffic, not growth.
	for k := 0; k < c.keys; k++ {
		m.Put(uint64(k), uint64(k))
	}
	// Baseline snapshot after the preload: the cell's reported counters
	// are the measured interval's delta (Snapshot.Sub), so the preload's
	// million-odd Puts no longer pollute the acquires/fast-path numbers.
	baseline := m.Snapshot()

	// With a policy, an adaptation controller runs for the whole
	// measured interval, live-reconfiguring stripes as its policy
	// directs; its swaps land in the swaps column.
	var ctrl *shard.Controller
	if c.policy != "" {
		ctrl = shard.StartController(context.Background(), m, policy.MustNew(c.policy), c.adaptEvery)
	}

	var stop atomic.Bool
	var ops, scans, rejected, attempts, misses atomic.Int64

	// With a fault spec, a fresh Set (fresh injection counters) is built
	// per cell and installed as the map's injector; the chaos supervisor
	// arms/disarms it on the timeline and does the phase accounting.
	var set *fault.Set
	var chaosCh chan *benchfmt.ChaosResult
	if c.fault != "" {
		set = fault.MustNew(c.fault)
		m.SetInjector(set)
		chaosCh = make(chan *benchfmt.ChaosResult, 1)
		go func() { chaosCh <- runChaos(c, m, set, &attempts, &misses, &stop) }()
	}
	// Per-worker latency logs, merged after the run: no shared state on
	// the measurement path.
	lats := make([][]int64, c.threads)
	var wg sync.WaitGroup
	perWorkerRate := c.rate / float64(c.threads)
	for g := 0; g < c.threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c.seed)*1315423911 + int64(id)))
			pick := loadgen.KeyPicker(rng, c.dist, c.zipfS, c.keys)
			base := shard.WithClientID(context.Background(), id)
			log := make([]int64, 0, 1<<16)
			defer func() { lats[id] = log }()
			// Open loop: a Poisson schedule this worker must keep up with.
			next := time.Now()
			interval := func() time.Duration {
				if perWorkerRate <= 0 {
					return 0
				}
				return time.Duration(rng.ExpFloat64() / perWorkerRate * float64(time.Second))
			}
			for !stop.Load() {
				arrival := time.Now()
				if perWorkerRate > 0 {
					next = next.Add(interval())
					arrival = next
					if !loadgen.SleepUntil(next, &stop) {
						return
					}
				}
				key := pick()
				if set != nil {
					// Skew storm: an active hotkey fault funnels this
					// request to its key (identity while inactive).
					key = set.Key(key)
				}
				scan := c.scanFrac > 0 && rng.Float64() < c.scanFrac
				read := rng.Float64() < c.readFrac
				issue := func(ctx context.Context) error {
					switch {
					case scan:
						hi := key + uint64(c.scanSpan) - 1
						return m.ScanContext(ctx, key, hi, func(_, _ uint64) bool { return true })
					case read:
						_, _, err := m.GetContext(ctx, key)
						return err
					default:
						_, err := m.PutContext(ctx, key, uint64(id))
						return err
					}
				}
				var err error
				deadlined := c.cancelFrac > 0 && rng.Float64() < c.cancelFrac
				if deadlined {
					// Deadline measured from scheduled arrival: a worker
					// behind schedule starts with the budget already burnt.
					ctx, cancel := context.WithDeadline(base, arrival.Add(c.deadline))
					attempts.Add(1)
					err = issue(ctx)
					cancel()
				} else {
					err = issue(base)
				}
				if err != nil {
					if scan && errors.Is(err, shard.ErrUnordered) {
						// Under a -policy, a scan can race a stripe whose
						// backend is (still, or again) unordered; the
						// rejected demand is the scanaware policy's input
						// signal, not a failure — count it separately and
						// do not charge the deadline-miss column.
						rejected.Add(1)
						if deadlined {
							attempts.Add(-1)
						}
						continue
					}
					if deadlined {
						misses.Add(1)
						continue
					}
					panic(err) // uncancellable point ops cannot fail
				}
				log = append(log, int64(time.Since(arrival)))
				if scan {
					scans.Add(1)
				}
				ops.Add(1)
			}
		}(g)
	}
	time.Sleep(c.duration)
	stop.Store(true)
	wg.Wait()
	if ctrl != nil {
		ctrl.Stop()
	}

	// Collect the chaos report first: the supervisor drains its surge
	// workers on exit, so the closing snapshot sees a quiesced map.
	var chaos *benchfmt.ChaosResult
	if chaosCh != nil {
		chaos = <-chaosCh
	}
	snap := m.Snapshot()
	delta := snap.Sub(baseline)
	r := benchfmt.Result{
		Dist:          c.dist,
		Lock:          c.spec,
		Backend:       c.backend,
		ReadPath:      m.ReadPath(), // canonical form: "locked" for the "" default
		Policy:        c.policy,
		Stripes:       m.Stripes(),
		Threads:       c.threads,
		Duration:      c.duration.Seconds(),
		Ops:           int(ops.Load()),
		OpsPerSec:     float64(ops.Load()) / c.duration.Seconds(),
		Scans:         int(scans.Load()),
		ScansRejected: int(rejected.Load()),
		Swaps:         int(delta.Swaps),
		Chaos:         chaos,
	}
	var merged []int64
	for _, log := range lats {
		merged = append(merged, log...)
	}
	r.P50Micros = benchfmt.PercentileMicros(merged, 0.50)
	r.P99Micros = benchfmt.PercentileMicros(merged, 0.99)
	// Optimistic read-path outcomes for the measured interval. Read with
	// Stats["acquires"]: on a read-heavy cell, hits ≈ Gets and acquires ≈
	// writes is the zero-lock-read acceptance claim in one row.
	r.OptimisticHits = int(delta.OptimisticHits)
	r.OptimisticRetries = int(delta.OptimisticRetries)
	r.OptimisticFallbacks = int(delta.OptimisticFallbacks)
	r.OptimisticHitRate = benchfmt.Rate(r.OptimisticHits, r.OptimisticHits+r.OptimisticFallbacks)
	r.OptimisticFallbackRate = benchfmt.Rate(r.OptimisticFallbacks, r.OptimisticHits+r.OptimisticFallbacks)
	if n := attempts.Load(); n > 0 {
		// Guarded: the rate is computed only from a nonzero attempt count,
		// so the JSON can never carry a NaN (encoding/json rejects them).
		r.DeadlineAttempts = int(n)
		r.DeadlineMisses = int(misses.Load())
		r.MissRate = float64(misses.Load()) / float64(n)
	}
	active := 0
	for _, s := range snap.Stripes {
		if s.Fairness.Admissions == 0 {
			continue
		}
		active++
		r.MeanLWSS += s.Fairness.AvgLWSS
		r.MeanGini += s.Fairness.Gini
		if s.Fairness.AvgLWSS > r.MaxLWSS {
			r.MaxLWSS = s.Fairness.AvgLWSS
		}
		if s.Fairness.Gini > r.MaxGini {
			r.MaxGini = s.Fairness.Gini
		}
	}
	if active > 0 {
		r.MeanLWSS /= float64(active)
		r.MeanGini /= float64(active)
	}
	// CR event counters for the measured interval only (the delta over
	// the post-preload baseline).
	r.Stats = map[string]uint64{
		"acquires":     delta.Lock.Acquires,
		"handoffs":     delta.Lock.Handoffs,
		"culls":        delta.Lock.Culls,
		"reprovisions": delta.Lock.Reprovisions,
		"promotions":   delta.Lock.Promotions,
		"parks":        delta.Lock.Parks,
		"unparks":      delta.Lock.Unparks,
		"fast_path":    delta.Lock.FastPath,
		"slow_path":    delta.Lock.SlowPath,
		"cancels":      delta.Lock.Cancels,
		"abandons":     delta.Lock.Abandons,
	}
	return r
}

// runChaos drives one cell's scripted fault timeline (loadgen.Chaos does
// the timeline, phase accounting and recovery detection) against the
// local fault set, and runs the surge pool — while a surge fault is
// active, ExtraThreads() patient (deadline-free) hammerers run on top of
// the measured workers, which is the paper's overthreading collapse
// injected on demand. Nothing here may take a map snapshot: a monitor
// acquiring a stormed stripe's lock is exactly the kind of patient
// arrival a culling lock passivates. Returns when the cell stops, with
// every surge worker drained.
//
//lockcheck:nosnapshot
func runChaos(c cellConfig, m *shard.Map, set *fault.Set, attempts, misses *atomic.Int64, stop *atomic.Bool) *benchfmt.ChaosResult {
	var surge []chan struct{}
	var surgeWg sync.WaitGroup
	spawn := func(id int) {
		quit := make(chan struct{})
		surge = append(surge, quit)
		surgeWg.Add(1)
		go func() {
			defer surgeWg.Done()
			rng := rand.New(rand.NewSource(int64(c.seed)*2654435761 + int64(id) + 1))
			for !stop.Load() {
				select {
				case <-quit:
					return
				default:
				}
				m.Put(set.Key(uint64(rng.Intn(c.keys))), uint64(id))
			}
		}()
	}
	resize := func(want int) {
		for len(surge) < want {
			spawn(len(surge))
		}
		for len(surge) > want {
			close(surge[len(surge)-1])
			surge = surge[:len(surge)-1]
		}
	}
	defer surgeWg.Wait()
	defer func() { resize(0) }()

	cr := loadgen.Chaos{
		After: c.faultAfter, For: c.faultFor, Sample: c.faultSample, Target: c.faultTarget,
		Attempts: attempts, Misses: misses, Stop: stop,
		Arm: set.Arm, Disarm: set.Disarm,
		OnSample: func(armed bool) {
			if armed {
				resize(set.ExtraThreads())
			} else {
				resize(0)
			}
		},
	}.Run()
	cr.Fault = set.String()
	st := set.Stats()
	cr.Stalls = st.Stalls
	cr.StallMillis = float64(st.StallTime) / float64(time.Millisecond)
	cr.Reroutes = st.Reroutes
	cr.SurgePeak = st.SurgePeak
	return cr
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad stripe count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
