package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the ablations called out in DESIGN.md §5. Each
// figure benchmark runs a trimmed thread sweep per iteration and reports
// the headline quantities as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the whole evaluation in miniature. cmd/figures produces the
// full-sweep TSVs.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/experiments"
	"repro/lock"
	"repro/sim"
	"repro/workloads"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Threads: []int{1, 5, 32}, Measure: 6_000_000}
}

// reportSeries reports each series' throughput at the highest thread
// count as a metric named after the lock.
func reportSeries(b *testing.B, fig experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		p := s.Points[len(s.Points)-1]
		b.ReportMetric(p.Y, s.Label+"_steps/s")
	}
}

func BenchmarkFig01Model(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		fig := experiments.Fig1(experiments.Options{})
		sink += fig.Series[0].Points[0].Y
	}
	_ = sink
}

func BenchmarkFig03RandArray(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig3(benchOpts()))
	}
}

func BenchmarkFig04Indepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(experiments.Options{Measure: 6_000_000})
		for _, r := range rows {
			b.ReportMetric(r.Throughput, r.Lock+"_steps/s")
			b.ReportMetric(r.AvgLWSS, r.Lock+"_LWSS")
		}
	}
}

func BenchmarkFig05RingWalker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig5(benchOpts()))
	}
}

func BenchmarkFig06StressLatency(b *testing.B) {
	o := benchOpts()
	o.Threads = []int{1, 16, 64}
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig6(o))
	}
}

func BenchmarkFig07Mmicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig7(benchOpts()))
	}
}

func BenchmarkFig08KVStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig8(benchOpts()))
	}
}

func BenchmarkFig09HashDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig9(benchOpts()))
	}
}

func BenchmarkFig10ProdCons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig10(benchOpts()))
	}
}

func BenchmarkFig11Keymap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig11(benchOpts()))
	}
}

func BenchmarkFig12LRUCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig12(benchOpts()))
	}
}

func BenchmarkFig13Interp(b *testing.B) {
	o := benchOpts()
	o.Threads = []int{1, 16}
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig13(o))
	}
}

func BenchmarkFig14BufferPool(b *testing.B) {
	o := benchOpts()
	o.Threads = []int{32}
	for i := 0; i < b.N; i++ {
		reportSeries(b, experiments.Fig14(o))
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

func runRandArray(spec sim.LockSpec, threads, scale int, mutate func(*sim.Config)) sim.Result {
	cfg := sim.DefaultConfig(scale)
	workloads.ConfigureLargePages(&cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	e := sim.New(cfg)
	l := e.NewLock(spec)
	workloads.BuildRandArray(e, l, threads, workloads.DefaultRandArray())
	return e.RunStandard(6_000_000)
}

// BenchmarkAblationFairnessP sweeps the Bernoulli promotion period: the
// fairness/throughput trade-off of §4 ("The probability parameter is
// tunable and reflects the trade-off between fairness and throughput").
func BenchmarkAblationFairnessP(b *testing.B) {
	for _, period := range []uint64{1, 10, 100, 1000, sim.NoFairness} {
		name := "never"
		if period != sim.NoFairness {
			name = map[uint64]string{1: "1", 10: "10", 100: "100", 1000: "1000"}[period]
		}
		b.Run("period="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runRandArray(sim.LockSpec{Kind: sim.KindMCSCR, Mode: sim.ModeSTP, FairnessPeriod: period}, 32, 16, nil)
				b.ReportMetric(res.StepsPerSec, "steps/s")
				b.ReportMetric(res.Fairness.Gini, "Gini")
				b.ReportMetric(res.Fairness.AvgLWSS, "LWSS")
			}
		})
	}
}

// BenchmarkAblationSpinBudget sweeps the spin-then-park spin phase (§5.1).
func BenchmarkAblationSpinBudget(b *testing.B) {
	for _, budget := range []sim.Cycles{0, 5_000, 25_000, 100_000} {
		b.Run(map[sim.Cycles]string{0: "park-only", 5_000: "5k", 25_000: "25k", 100_000: "100k"}[budget], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runRandArray(sim.LockSpec{Kind: sim.KindMCSCR, Mode: sim.ModeSTP}, 32, 16,
					func(c *sim.Config) { c.SpinBudget = budget })
				b.ReportMetric(res.StepsPerSec, "steps/s")
				b.ReportMetric(float64(res.VoluntaryCtxSwitches), "vctx")
			}
		})
	}
}

// BenchmarkAblationCulling compares MCSCR against plain MCS (identical
// lock minus the CR machinery): the contribution of culling itself.
func BenchmarkAblationCulling(b *testing.B) {
	for _, lc := range []struct {
		name string
		kind sim.LockKind
	}{{"with-culling", sim.KindMCSCR}, {"without", sim.KindMCS}} {
		b.Run(lc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runRandArray(sim.LockSpec{Kind: lc.kind, Mode: sim.ModeSTP}, 32, 16, nil)
				b.ReportMetric(res.StepsPerSec, "steps/s")
				b.ReportMetric(float64(res.CacheStats.LLCMisses), "L3miss")
			}
		})
	}
}

// BenchmarkAblationScale checks shape invariance across the capacity
// scale divisor: the CR-over-FIFO throughput ratio should be stable.
func BenchmarkAblationScale(b *testing.B) {
	for _, scale := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "scale8", 16: "scale16", 32: "scale32"}[scale], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cr := runRandArray(sim.LockSpec{Kind: sim.KindMCSCR, Mode: sim.ModeSTP}, 32, scale, nil)
				fifo := runRandArray(sim.LockSpec{Kind: sim.KindMCS, Mode: sim.ModeSpin}, 32, scale, nil)
				b.ReportMetric(cr.StepsPerSec/fifo.StepsPerSec, "CR/FIFO")
			}
		})
	}
}

// BenchmarkAblationStagger demonstrates the two-basin behaviour recorded
// in DESIGN.md: mass simultaneous thread arrival wedges the CR lock in a
// churn regime; realistic staggered startup converges to the paper's
// equilibrium.
func BenchmarkAblationStagger(b *testing.B) {
	for _, st := range []sim.Cycles{0, 1_000_000} {
		b.Run(map[sim.Cycles]string{0: "simultaneous", 1_000_000: "staggered"}[st], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runRandArray(sim.LockSpec{Kind: sim.KindMCSCR, Mode: sim.ModeSTP}, 32, 16,
					func(c *sim.Config) { c.StartStagger = st })
				b.ReportMetric(res.StepsPerSec, "steps/s")
				b.ReportMetric(res.Fairness.AvgLWSS, "LWSS")
			}
		})
	}
}

// --- Real goroutine lock microbenchmarks ------------------------------------

func benchLock(b *testing.B, m lock.Mutex, goroutines int) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N / goroutines
	if per == 0 {
		per = 1
	}
	b.ResetTimer()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Lock()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
}

// realLocks enumerates the goroutine-lock microbenchmark subjects via
// the registry — the single source of truth for lock names. Null is
// excluded (it measures only harness overhead).
func realLocks(b *testing.B) []string {
	b.Helper()
	var names []string
	for _, n := range lock.Names() {
		if n != "null" {
			names = append(names, n)
		}
	}
	return names
}

func BenchmarkLockUncontended(b *testing.B) {
	for _, name := range realLocks(b) {
		b.Run(name, func(b *testing.B) { benchLock(b, lock.MustNew(name), 1) })
	}
}

func BenchmarkLockContended(b *testing.B) {
	for _, name := range realLocks(b) {
		b.Run(name, func(b *testing.B) { benchLock(b, lock.MustNew(name), 8) })
	}
}

// BenchmarkLockContextUncontended measures LockContext(Background) on the
// uncontended path: the acceptance gate for keeping the cancellation
// machinery off the fast path (it should match BenchmarkLockUncontended
// up to the cost of one Err() call).
func BenchmarkLockContextUncontended(b *testing.B) {
	ctx := context.Background()
	for _, name := range realLocks(b) {
		b.Run(name, func(b *testing.B) {
			m := lock.MustNew(name).(lock.ContextMutex)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.LockContext(ctx); err != nil {
					b.Fatal(err)
				}
				m.Unlock()
			}
		})
	}
}

// BenchmarkLockContextDeadline measures the contended cancellable path: 8
// goroutines acquiring through LockContext with a live (generous)
// deadline, so the context plumbing and deadline timers are on the path
// but cancellations are rare.
func BenchmarkLockContextDeadline(b *testing.B) {
	for _, name := range realLocks(b) {
		b.Run(name, func(b *testing.B) {
			m := lock.MustNew(name).(lock.ContextMutex)
			var wg sync.WaitGroup
			const goroutines = 8
			per := b.N / goroutines
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						if err := m.LockContext(ctx); err == nil {
							m.Unlock()
						}
						cancel()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkExtNUMA regenerates the §9.1 MCSCRN extension experiment at
// reduced size, reporting throughput and lock-migration rate.
func BenchmarkExtNUMA(b *testing.B) {
	o := benchOpts()
	o.Threads = []int{32}
	for i := 0; i < b.N; i++ {
		fig := experiments.FigNUMA(o)
		reportSeries(b, fig)
		for label, rate := range experiments.MigrationRates(fig) {
			b.ReportMetric(rate, label+"_migrations/acq")
		}
	}
}
