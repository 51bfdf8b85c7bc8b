// Package core holds the concurrency-restriction (CR) engine shared by the
// Malthusian lock variants in package lock: the default fairness period,
// the Bernoulli long-term-fairness trial, and the statistics the paper
// reports.
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
