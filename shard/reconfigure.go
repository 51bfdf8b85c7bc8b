package shard

import "fmt"

// Reconfigure moves stripe i to another storage backend while the map
// serves traffic. An empty spec, or the stripe's current one, is a no-op
// (no swap is counted). The spec is validated — the table built — before
// the stripe is disturbed, so a malformed spec returns a descriptive
// error and changes nothing. The stripe's lock is never replaced: it is
// built once, in New, and admits every operation across every swap.
//
// The swap protocol:
//
//  1. Build the replacement table outside any lock (seeded and sized
//     exactly as New would have built it for this stripe).
//  2. Quiesce: acquire the stripe lock. In-flight operations have
//     drained; late arrivals queue on the same lock.
//  3. Migrate: copy every entry from the old table into the new one via
//     Range, still under the stripe lock.
//  4. Poison the old descriptor's seqlock stamp, still under the lock
//     and before publication. This is the whole of what guards a stale
//     optimistic reader: however late it finishes probing through the
//     old descriptor, its validation fails and it re-reads through the
//     published one.
//  5. Publish the new descriptor (atomic store).
//  6. Release the stripe lock. Every operation loads the descriptor
//     after acquiring the lock, so each waiter that was queued behind the
//     swap sees the new table — no table access happens outside the
//     lock, before or after publication. The old descriptor is simply
//     dropped; the garbage collector frees it once the last optimistic
//     reader holding it has let go.
//
// The stripe is unavailable for the duration of the migration (O(keys in
// stripe) under the stripe lock); point operations queue exactly as they
// would behind any long critical section, and context operations'
// deadlines keep counting — a swap on a huge stripe can cost deadline
// misses. Lock counters need no carrying over: the lock, and so its
// counters, outlive the swap.
//
// Concurrent Reconfigure calls on the same stripe serialize; calls on
// different stripes are independent. Reconfigure never blocks operations
// on other stripes.
func (m *Map) Reconfigure(i int, backendSpec string) error {
	_, err := m.reconfigure(i, backendSpec)
	return err
}

// reconfigure is Reconfigure, additionally reporting whether a swap was
// actually applied (false for the validated no-op paths) — the exact
// accounting the controller needs, without racing other reconfigurers
// for the stripe's swap counter.
func (m *Map) reconfigure(i int, backendSpec string) (swapped bool, err error) {
	if i < 0 || i >= len(m.stripes) {
		return false, fmt.Errorf("shard: Reconfigure stripe %d out of range [0, %d)", i, len(m.stripes))
	}
	s := &m.stripes[i]
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	old := s.desc.Load()
	if backendSpec == "" || backendSpec == old.backendSpec {
		return false, nil
	}

	// Step 1: build the replacement before touching the stripe.
	table, err := m.buildBackend(backendSpec, i)
	if err != nil {
		return false, err
	}
	nd := m.newDescriptor(table, backendSpec, old.swaps+1)

	// Step 2: quiesce.
	s.mu.Lock()

	// Step 3: migrate.
	old.table.Range(func(k, v uint64) bool {
		table.Put(k, v)
		return true
	})

	// Step 4: poison the outgoing descriptor's seqlock stamp, before
	// publication. An optimistic reader that loaded the old descriptor
	// can keep probing its table arbitrarily late; the poison (odd
	// forever) guarantees its validation fails and it re-reads through
	// the published descriptor.
	old.seq.Poison()

	// Step 5: publish.
	s.desc.Store(nd)

	// Step 6: release; queued waiters load the new descriptor.
	s.mu.Unlock()
	return true, nil
}
