// Package core holds the concurrency-restriction (CR) engine shared by the
// Malthusian lock variants in package lock: the admission policy knobs, the
// Bernoulli long-term-fairness trial, and the statistics the paper reports.
//
// The paper's CR discipline (§1, §4):
//
//   - Partition threads circulating over a contended lock into the active
//     circulating set (ACS) and the passive set (PS).
//   - At unlock time, surplus waiters (more than one) are culled from the
//     ACS into the PS ("culling").
//   - The admission policy must stay work conserving: a deficit in the ACS
//     promptly reprovisions from the PS ("reprovisioning").
//   - Long-term fairness is restored by a Bernoulli trial: on average once
//     every FairnessPeriod unlocks, ownership is ceded to the eldest
//     member of the PS ("promotion").
package core

import (
	"repro/internal/xrand"
)

// DefaultFairnessPeriod is the paper's promotion rate: "Statistically, we
// cede ownership to the tail of the PS ... on average once every 1000
// unlock operations."
const DefaultFairnessPeriod = 1000

// DefaultSpinBudget is the bounded spin phase of spin-then-park waiting,
// in poll iterations — none: on goroutines "spin-then-park" is "park".
// The paper spins ~20000 cycles because a context-switch round trip costs
// a kernel thread that (§5.1). Here (2-CPU container, internal/park's
// benchmarks) a Parker ping-pong is 0.36–0.47 µs, so a park and its wake
// cost ~0.2 µs, while a polite spin phase must yield every 64 polls and
// one runtime.Gosched is 0.09 µs alone and 0.8–3.4 µs behind eight
// runnable peers — several times the park it postpones; and an idle M
// already spins for work before it sleeps. Chosen by sweep with lock's
// directed handoff in place, over {0, 16, 64, 256, 1024, 4096} on the
// benchmark's lock_oversub and map_hot_write (CHANGES.md, PR 22): 0–256
// tie on the first, 0 is best on the second, 1024 and up lose half. A
// lock that wants a spin phase says spin=N in its spec.
const DefaultSpinBudget = 0

// Policy carries the tunables of a CR lock. The paper stresses parameter
// parsimony: the ACS size is never a tunable — it emerges from culling —
// and the only knobs are the fairness period and the spin budget.
type Policy struct {
	// FairnessPeriod k makes each unlock promote the eldest passive
	// thread with probability 1/k. 0 disables promotion (pure CR, unfair
	// long-term); 1 promotes on every unlock (degenerates toward FIFO).
	FairnessPeriod uint64

	// SpinBudget is the number of poll iterations a waiter spins before
	// parking under spin-then-park waiting. Ignored by pure-spin waiters.
	SpinBudget int

	// Seed seeds the lock-local xor-shift generator used for Bernoulli
	// trials. Zero selects a fixed default so behaviour is reproducible.
	Seed uint64
}

// DefaultPolicy returns the defaults: the paper's fairness period and this
// substrate's spin budget.
func DefaultPolicy() Policy {
	return Policy{FairnessPeriod: DefaultFairnessPeriod, SpinBudget: DefaultSpinBudget}
}

// Trial is the lock-local Bernoulli fairness trial. It is deliberately not
// synchronized: every CR lock calls it only from its unlock path while the
// lock is still held, which serializes access — the same protection the
// paper uses for the passive list itself.
type Trial struct {
	rng    xrand.State
	period uint64
}

// NewTrial returns a Trial with the given period and seed.
func NewTrial(period, seed uint64) *Trial {
	t := &Trial{period: period}
	t.rng.Seed(seed)
	return t
}

// Promote reports whether this unlock should cede ownership to the eldest
// passive thread.
func (t *Trial) Promote() bool {
	return t.rng.Bernoulli(t.period)
}

// Prob reports true with probability p; used by the mostly-LIFO condition
// variable and semaphore admission policies (append vs prepend).
func (t *Trial) Prob(p float64) bool {
	return t.rng.Prob(p)
}

// The event counters a lock maintains (Stats, Snapshot, Event) live in
// stats.go: a striped, cache-line-padded subsystem so the measurement
// machinery itself stays invisible to the coherence fabric.
