// Package lock implements the Malthusian lock family from Dave Dice,
// "Malthusian Locks" (EuroSys 2017), together with the classic baselines
// the paper compares against.
//
// Concurrency-restricting (CR) locks — the paper's contribution:
//
//   - MCSCR: classic MCS with an explicit passive list, unlock-time
//     culling, and Bernoulli long-term-fairness promotion (§4).
//   - LIFOCR: an explicit LIFO stack of waiters with direct handoff to the
//     most recently arrived and periodic eldest promotion (Appendix A.2).
//   - LOITER: an outer test-and-set lock with a barging fast path and an
//     inner MCS slow path holding the passive set; at most one "standby"
//     thread bridges the two, with impatience-triggered direct handoff
//     (Appendix A.1).
//
// Baselines, the paper's two (§5–6) and a calibration lock:
//
//   - TAS / TTAS with randomized backoff (competitive succession, global
//     spinning, unbounded bypass);
//   - MCS (FIFO, local waiting, direct handoff);
//   - Null (degenerate; for harness calibration only).
//
// All locks satisfy sync.Locker — and ContextMutex: acquisition can be
// bounded by a context (LockContext; a deadline context bounds it by a
// duration), with a cancelled waiter excised from the lock's waiter
// structures without breaking handoff (the per-lock protocols are
// specified in DESIGN.md §3). Queue-based locks allocate their waiter
// nodes from pools and are safe for use by any number of goroutines; no
// per-thread registration is required.
//
// # Construction
//
// Locks are usually built from a registry spec — New("mcscr-stp"),
// New("lifocr?fairness=100&seed=42") — so lock choice and tuning can live in
// configuration; Names lists the registered implementations and Register
// adds new ones. A spec with cr=true ("mcscr-stp?cr=true", or WithCR)
// wraps the lock it names in concurrency restriction at admission: at
// most min(GOMAXPROCS, NumCPU) goroutines reach it and the rest park (see
// WithCR). The typed constructors (NewMCSCR, NewTAS, ...) remain for
// callers that want the concrete types.
//
// # Instrumentation
//
// Every lock maintains the paper's CR event counters (acquires, handoffs,
// culls, reprovisions, promotions, parks, unparks, fast/slow path),
// exposed via its Stats method as a core.Snapshot. The counters are
// striped: writes land in one of ~core.Parallelism cache-line-padded
// counter sets selected by a cheap per-goroutine hash, so the
// instrumentation itself generates no cross-processor coherence traffic
// on the hot path.
// WithStats(false) removes even that cost — the lock carries a nil stats
// reference and every counter update compiles down to a single predicted
// branch. Contended lock words and per-waiter flags are cache-line
// isolated (see internal/pad) so local spinning stays local.
//
// # Waiting
//
// The paper offers each queue lock spinning ("-S") or spin-then-park
// ("-STP") over lwp_park/lwp_unpark. Here a queued waiter has one shape,
// "-STP" without the spin: it parks at once on a per-waiter Parker,
// because a goroutine park and its wake cost less than one polite yield
// of a spin phase (see politePause), and a waiter that polls without
// bound loses to it at every thread count (DESIGN.md §5). The "-S" shape
// survives only in the simulator. An unlock that had to unpark its
// successor yields its P to it, so the lock is never owned by a goroutine
// that is merely runnable. What still spins: TAS, the paper's
// global-spinning baseline, and LOITER's bounded arrival phase.
package lock

import (
	"sync"

	"repro/internal/core"
)

// Mutex is the common contract of every lock in this package. It is
// sync.Locker plus TryLock, which all implementations support.
type Mutex interface {
	sync.Locker
	// TryLock acquires the lock if it is immediately available and
	// reports whether it did.
	TryLock() bool
}

// Option configures a lock at construction time.
type Option func(*config)

// config carries a lock's tunables. The paper stresses parameter
// parsimony: the ACS size is never a tunable — it emerges from culling,
// or, under WithCR, is the processor count.
type config struct {
	fairness     uint64 // Bernoulli promotion period (MCSCR, LIFOCR, cr)
	seed         uint64 // fairness-trial PRNG seed
	patience     int    // LOITER standby impatience threshold
	arrivalSpins int    // LOITER fast-path attempt bound
	noStats      bool   // WithStats(false): skip counter maintenance entirely
	cr           bool   // WithCR(true): New restricts concurrency at admission
}

func defaultConfig() config {
	return config{
		fairness:     core.DefaultFairnessPeriod,
		patience:     DefaultPatience,
		arrivalSpins: DefaultArrivalSpins,
	}
}

// newStats builds the striped stats for a lock under construction, or nil
// when instrumentation is disabled (nil *core.Stats no-ops every update).
func (c *config) newStats() *core.Stats {
	if c.noStats {
		return nil
	}
	return core.NewStats()
}

func buildConfig(opts []Option) config {
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithFairnessPeriod sets the Bernoulli promotion period k (promote the
// eldest passive thread with probability 1/k per unlock). 0 disables
// long-term fairness enforcement. Default 1000, as in the paper.
func WithFairnessPeriod(k uint64) Option {
	return func(c *config) { c.fairness = k }
}

// WithSeed seeds the lock-local PRNG used by fairness trials, making runs
// reproducible. Zero (the default) selects a fixed internal seed.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithCR makes New layer concurrency restriction at admission over the
// lock it builds (default off): at most min(GOMAXPROCS, NumCPU)
// goroutines (core.Parallelism, read at construction) reach the lock,
// holder included, and the rest park on a LIFO passive stack until the
// admitted set drains. The eldest passive
// goroutine is admitted with probability 1/FairnessPeriod per unlock.
// Only New reads it; the typed constructors build the bare lock.
func WithCR(enabled bool) Option {
	return func(c *config) { c.cr = enabled }
}

// WithStats enables or disables event-counter maintenance (default
// enabled). Disabled, the lock's Stats method returns a zero snapshot and
// the hot paths carry no instrumentation cost beyond one predicted
// nil-check branch per counter site.
func WithStats(enabled bool) Option {
	return func(c *config) { c.noStats = !enabled }
}
