// Command shardd serves a shard.Map over the wire protocol: the
// repo's Malthusian lock family, registry-spec stripes and fault
// injection, fronted by TCP so arrivals are remote
// requests carrying their own deadlines instead of goroutines a
// benchmark spawned in-process.
//
// Quickstart:
//
//	shardd -addr :7070 -metrics-addr :7071 \
//	    -stripes 16 -lock 'mcscr-stp?fairness=500' -backend skiplist
//
// Drive it with cmd/shardload, scrape text-exposition counters from
// /metrics on the metrics address, arm chaos over the wire with the
// FAULT verb (wire.Client.FaultArm), and stop it with SIGTERM — the
// server drains: accepted requests finish and their responses flush
// before the process exits. Gets are served lock-free by default on a
// backend that supports it (hashmap); -read-path locked sends every Get
// through the stripe lock. With -history-cap N each stripe records
// which connection made each of its first N admissions, and /metrics
// gains the per-stripe LWSS gauge; a lock-free Get is no admission, so
// on the default read path the history counts writes and the Gets that
// fell back to the lock. -list prints every registered lock, backend
// and fault with its summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/fault"
	"repro/lock"
	"repro/server"
	"repro/store"
)

func main() {
	var cfg server.Config
	flag.StringVar(&cfg.Addr, "addr", ":7070", "wire listen address")
	flag.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "/metrics HTTP listen address (empty = disabled)")
	flag.IntVar(&cfg.Stripes, "stripes", 0, "stripe count (0 = shard default, rounded up to a power of two)")
	flag.StringVar(&cfg.LockSpec, "lock", "", "stripe lock spec (see lock.New; empty = shard default)")
	flag.StringVar(&cfg.BackendSpec, "backend", "", "stripe backend spec (see store.New; empty = shard default)")
	flag.StringVar(&cfg.ReadPath, "read-path", "", "Get read path: optimistic (default: lock-free seqlock-validated Gets where the backend supports them) or locked (every Get takes the stripe lock)")
	flag.DurationVar(&cfg.DrainGrace, "drain-grace", 2*time.Second, "how long SIGTERM drain waits for in-flight requests")
	flag.DurationVar(&cfg.MetricsInterval, "metrics-interval", time.Second, "/metrics sampler cadence")
	flag.Uint64Var(&cfg.Seed, "seed", 0, "deterministic seed for stochastic lock behavior (0 = off)")
	flag.IntVar(&cfg.HistoryCap, "history-cap", 0, "per-stripe admission history capacity (0 = off; enables LWSS gauges)")
	list := flag.Bool("list", false, "list registered lock, backend and fault specs with their summaries, then exit")
	flag.Parse()

	if *list {
		printRegistries()
		return
	}

	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("shardd: serving on %s", s.Addr())
	if ma := s.MetricsAddr(); ma != "" {
		fmt.Printf(", /metrics on %s", ma)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("shardd: %v — draining (grace %v)\n", got, cfg.DrainGrace)
	if err := s.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("shardd: drained")
}

// printRegistries renders the three registries' canonical names with
// their Registration.Summary lines: pick the lock and the backend, and
// the fault that tries to break both.
func printRegistries() {
	section := func(title string, names []string, summary func(string) string) {
		fmt.Println(title)
		for _, name := range names {
			fmt.Printf("  %-11s %s\n", name, summary(name))
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
	section("faults (the FAULT verb, shardload -fault; see fault.New for parameters):", fault.Names(), func(n string) string {
		reg, _ := fault.Lookup(n)
		return reg.Summary
	})
}
