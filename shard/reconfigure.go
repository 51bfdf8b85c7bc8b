package shard

import (
	"fmt"

	"repro/store"
)

// StripeSpecs returns the specs stripe i's current lock and backend were
// built from. They are construction values until the stripe is
// reconfigured, live values after; i must be in [0, Stripes()).
func (m *Map) StripeSpecs(i int) (lockSpec, backendSpec string) {
	d := m.stripes[i].desc.Load()
	return d.lockSpec, d.backendSpec
}

// Reconfigure swaps stripe i's admission and/or storage policy while the
// map serves traffic. An empty spec keeps the current one, so a caller
// can swap just the lock ("mcscr-stp", "") or just the backend
// ("", "skiplist"); when both resolve to the stripe's current specs the
// call is a no-op (no swap is counted). Specs are validated — built —
// before the stripe is disturbed, so a malformed spec returns a
// descriptive error and changes nothing.
//
// The swap protocol:
//
//  1. Build the replacement lock and backend outside any lock (seeded
//     and sized exactly as New would have built them for this stripe).
//  2. Quiesce: acquire the stripe's current (old) lock. In-flight
//     operations have drained; late arrivals either queue on the old
//     lock or will load the new descriptor.
//  3. Migrate: if the backend spec changed, copy every entry from the
//     old table into the new one via Range, still under the old lock.
//     An unchanged backend spec keeps the table — no copy, no
//     allocation.
//  4. Poison the old descriptor's seqlock stamp, still under the old
//     lock and before publication. This is the whole of what guards a
//     stale optimistic reader: however late it finishes probing through
//     the old descriptor, its validation fails and it re-reads through
//     the published one.
//  5. Publish the new descriptor (atomic store). New arrivals now route
//     through the new lock and table.
//  6. Release the old lock. Waiters that were queued on it wake, observe
//     the descriptor changed, release, and retry on the new lock (see
//     stripe.lockCurrent) — mutual exclusion covers the swap with no
//     gap: every table access happens either under the old lock before
//     publication or under the new lock after it. The old descriptor is
//     simply dropped; the garbage collector frees it once the last
//     reader or waiter holding it has let go.
//
// The stripe is unavailable for the duration of the migration (O(keys in
// stripe) under the old lock); point operations queue exactly as they
// would behind any long critical section, and context operations'
// deadlines keep counting — a swap on a huge stripe can cost deadline
// misses. Lock counters are carried over: the retired lock's totals fold
// into the published descriptor's base, so Snapshot stays monotonic.
// Events recorded on the retired lock by waiters still draining off it
// after publication (bounded by the queue length at swap time) are not
// folded in — the one observability loss of a swap.
//
// Concurrent Reconfigure calls on the same stripe serialize; calls on
// different stripes are independent. Reconfigure never blocks operations
// on other stripes.
func (m *Map) Reconfigure(i int, lockSpec, backendSpec string) error {
	_, err := m.reconfigure(i, lockSpec, backendSpec)
	return err
}

// reconfigure is Reconfigure, additionally reporting whether a swap was
// actually applied (false for the validated no-op paths) — the exact
// accounting the controller needs, without racing other reconfigurers
// for the stripe's swap counter.
func (m *Map) reconfigure(i int, lockSpec, backendSpec string) (swapped bool, err error) {
	if i < 0 || i >= len(m.stripes) {
		return false, fmt.Errorf("shard: Reconfigure stripe %d out of range [0, %d)", i, len(m.stripes))
	}
	s := &m.stripes[i]
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	old := s.desc.Load()
	if lockSpec == "" {
		lockSpec = old.lockSpec
	}
	if backendSpec == "" {
		backendSpec = old.backendSpec
	}
	sameLock := lockSpec == old.lockSpec
	sameBackend := backendSpec == old.backendSpec
	if sameLock && sameBackend {
		return false, nil
	}

	// Step 1: build the replacements before touching the stripe.
	nd := &descriptor{
		lockSpec:    lockSpec,
		backendSpec: backendSpec,
		swaps:       old.swaps + 1,
	}
	if sameLock {
		// The lock object is reused: its counters keep accumulating and
		// waiters queued on it stay queued on the right lock.
		nd.mu, nd.stats, nd.base = old.mu, old.stats, old.base
	} else {
		mu, stats, err := m.buildLock(lockSpec, i)
		if err != nil {
			return false, err
		}
		nd.mu, nd.stats = mu, stats
	}
	if !sameBackend {
		table, err := m.buildBackend(backendSpec, i)
		if err != nil {
			return false, err
		}
		nd.table = table
	}

	// Step 2: quiesce under the old lock.
	old.mu.Lock()

	// Step 3: migrate (or keep) the table.
	if sameBackend {
		nd.table, nd.ordered, nd.opt = old.table, old.ordered, old.opt
	} else {
		old.table.Range(func(k, v uint64) bool {
			nd.table.Put(k, v)
			return true
		})
		nd.ordered, _ = nd.table.(store.Ordered)
		if m.readPath.Optimistic {
			nd.opt, _ = nd.table.(store.OptimisticReader)
		}
	}
	if !sameLock {
		// Retire the old lock's counters into the new descriptor's base.
		// Everything counted up to our own acquisition is included.
		nd.base = old.base
		if old.stats != nil {
			nd.base = nd.base.Add(old.stats.Stats())
		}
	}

	// Step 4: poison the outgoing descriptor's seqlock stamp — still
	// under the old lock, before publication. An optimistic reader that
	// loaded the old descriptor can keep probing its table arbitrarily
	// late; the poison (odd forever) guarantees its validation fails and
	// it re-reads through the published descriptor. Ordering matters on
	// the same-lock path, where the new descriptor shares the old one's
	// table: all stamp and slot operations are sequentially consistent,
	// so a reader that observes any post-swap mutation also observes the
	// poison that preceded the swap in the writer's program order.
	old.seq.Poison()

	// Step 5: publish.
	s.desc.Store(nd)

	// Step 6: release the retired lock; its queued waiters re-route.
	old.mu.Unlock()
	return true, nil
}
