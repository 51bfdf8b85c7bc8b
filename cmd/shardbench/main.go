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
//	shardbench -stripes 8 -backend hashmap -scan-frac 0.3 -policy static,scanaware
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
// policy says are mis-specced — a scan-swamped stripe flipped to an
// ordered backend by "scanaware", a stripe burning its deadline budget
// demoted to a culling lock by "slo". The swaps column (and "swaps" JSON
// field) counts applied reconfigurations per cell; sweep
// "static,scanaware" to price adaptation against a frozen baseline on
// identical traffic.
//
// The request loop itself — schedule, key pick, op mix, deadline draw,
// accounting, and the harness half of fault injection — is
// internal/loadgen's Run over a loadgen.MapDial target; its package
// comment states the accounting rules every cell follows, and
// cmd/shardload runs the same loop over the wire. Each request is tagged
// with its worker id (shard.WithClientID), so every admission lands in
// the owning stripe's history and the JSON record can report fairness
// (LWSS, Gini) per stripe — which is where collapse shows up: a skewed
// keyspace collapses its hottest stripe long before the aggregate
// throughput says anything.
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
// point drawn from the key distribution and visits every stripe, so it
// prices the cross-stripe merge against hashmap's cheaper point ops.
//
// The table and JSON report p50/p99 per cell alongside the deadline-miss
// rate ("-" when no request carried a deadline, never NaN); missed
// requests are not in the percentile pool, so read the two columns
// together. -rate R makes arrivals open-loop Poisson at R requests/sec
// across all workers; -rate 0 (default) is closed loop.
//
// With -fault, every cell runs a scripted chaos timeline (see fault.New
// for the spec grammar): the cell warms up healthy, the fault set is
// armed at -fault-after, disarmed -fault-for later, and the tail of the
// cell is the recovery window. Stall faults are injected inside the
// stripe critical section (Map.SetInjector); hotkey and surge faults run
// in the request loop, which also splits the deadline traffic into
// pre/fault/post phases and measures time-to-recovery: how long after
// fault onset the trailing miss rate (sampled every -fault-sample) stays
// at or below -fault-target for three consecutive samples (see
// loadgen.Chaos). Sweeping -policy 'static,slo?...' over the
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
// With -json FILE the results are also written as JSON (BENCH_shard.json
// at the repository root is one such record, a historical snapshot). With
// -append, an existing -json file is extended to a JSON array of records
// instead of overwritten — so a chaos run can ride alongside the
// steady-state record.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
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
		jsonPath    = flag.String("json", "", "write results to this file as JSON ('' disables)")
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
	traffic := loadgen.Traffic{
		Workers: *threads, Duration: *duration, Rate: *rate,
		Keys: *keys, ZipfS: *zipfS,
		ReadFrac: *readFrac, ScanFrac: *scanFrac, ScanSpan: *scanSpan,
		Deadline: *deadline, DeadlineFrac: *cancelFrac,
		Seed: *seed,
	}
	// The chaos timeline is validated like everything else: spec up
	// front, and the Arm..Disarm window must leave a recovery tail inside
	// the cell.
	var chaos *loadgen.Chaos
	if *faultSpec != "" {
		set, err := fault.New(*faultSpec)
		check(err)
		chaos = &loadgen.Chaos{Set: set, After: *faultAfter, For: *faultFor, Sample: *faultSample, Target: *faultTarget}
		if chaos.After <= 0 {
			chaos.After = *duration / 4
		}
		if chaos.For <= 0 {
			chaos.For = *duration / 2
		}
		if *cancelFrac <= 0 {
			fmt.Fprintf(os.Stderr, "shardbench: warning: -fault without -cancel-frac: no request carries a deadline, so the chaos miss rates and recovery time will read empty\n")
		}
	}
	for _, d := range dists {
		traffic.Dist = d
		check(traffic.Validate(chaos))
	}
	// Resolve every cell before any measurement, so a typo — or a scan
	// mix over a backend that cannot serve scans — fails fast instead of
	// after minutes of sweeping. With a -policy the ordered requirement
	// is lifted: a policy can install (or remove) an ordered backend
	// mid-cell — that is scanaware's whole demo — so rejected scans
	// become a counted outcome instead of a config error.
	for _, bspec := range backends {
		b, err := store.New(bspec)
		check(err)
		if _, ordered := b.(store.Ordered); *scanFrac > 0 && !ordered && *policyList == "" {
			fmt.Fprintf(os.Stderr, "shardbench: -scan-frac needs ordered backends (or a -policy that can install one, e.g. scanaware), but %q is not (ordered: skiplist, rbtree)\n", bspec)
			os.Exit(2)
		}
	}
	for _, spec := range specs {
		_, err := shard.New(shard.Config{Stripes: 1, LockSpec: spec})
		check(err)
	}
	rpaths := splitList(*rpathList)
	if len(rpaths) == 0 {
		rpaths = []string{""}
	}
	for _, rp := range rpaths {
		_, err := shard.New(shard.Config{Stripes: 1, ReadPath: rp})
		check(err)
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
		_, err := policy.New(pspec)
		check(err)
	}
	rec := traffic.Record(chaos)
	rec.CancelFrac = *cancelFrac
	if *policyList != "" {
		rec.Adapt = adaptEvery.String()
	}

	fmt.Printf("%-8s %-12s %-10s %-10s %-12s %7s %10s %10s %7s %8s %8s %7s %7s %6s\n",
		"dist", "lock", "backend", "rpath", "policy", "stripes", "ops", "ops/sec", "miss%", "p50(us)", "p99(us)", "LWSS", "Gini", "swaps")
	for _, dist := range dists {
		for _, spec := range specs {
			for _, bspec := range backends {
				for _, rp := range rpaths {
					for _, pspec := range policies {
						for _, n := range stripeCounts {
							traffic.Dist = dist
							r := runCell(cellConfig{
								Traffic: traffic, chaos: chaos,
								spec: spec, backend: bspec, stripes: n, readPath: rp,
								policy: pspec, adaptEvery: *adaptEvery,
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
							if line := r.OptimisticLine(); line != "" {
								fmt.Println("  " + line)
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
	loadgen.Traffic
	chaos      *loadgen.Chaos // the timeline every cell replays; nil = none
	spec       string
	backend    string
	readPath   string // Get read path; "" = locked
	policy     string // adaptation policy spec; "" = no controller
	adaptEvery time.Duration
	stripes    int
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
		Seed:        c.Seed,
		Capacity:    c.Keys,
		HistoryCap:  hcap,
		ReadPath:    c.readPath,
	})
	// Preload the keyspace so Gets hit and Puts update in place; the
	// measured interval then exercises steady-state traffic, not growth.
	for k := 0; k < c.Keys; k++ {
		m.Put(uint64(k), uint64(k))
	}
	// Baseline snapshot after the preload: the cell's reported counters
	// are the measured interval's delta (Counters.Sub), so the preload's
	// million-odd Puts no longer pollute the acquires/fast-path numbers.
	baseline := m.Snapshot().Counters

	// With a policy, an adaptation controller runs for the whole
	// measured interval, live-reconfiguring stripes as its policy
	// directs; its swaps land in the swaps column.
	var ctrl *shard.Controller
	if c.policy != "" {
		ctrl = shard.StartController(context.Background(), m, policy.MustNew(c.policy), c.adaptEvery)
	}
	// With a fault spec, a fresh Set (fresh injection counters) is built
	// per cell and installed as the map's injector, so the stalls land in
	// the stripes' critical sections on the clock loadgen arms the
	// harness hooks on.
	chaos := c.chaos
	if chaos != nil {
		fresh := *chaos
		fresh.Set = fault.MustNew(chaos.Set.String())
		m.SetInjector(fresh.Set)
		chaos = &fresh
	}
	res := loadgen.Run(c.Traffic, loadgen.MapDial(m), chaos)
	if ctrl != nil {
		ctrl.Stop()
	}

	snap := m.Snapshot()
	r := benchfmt.Result{
		Lock:     c.spec,
		Backend:  c.backend,
		ReadPath: m.ReadPath(), // canonical form: "locked" for the "" default
		Policy:   c.policy,
		Stripes:  m.Stripes(),
	}
	res.Fill(c.Traffic, snap.Counters.Sub(baseline), &r)
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
	return r
}

// check exits with a usage error when a flag value did not resolve.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
		os.Exit(2)
	}
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
