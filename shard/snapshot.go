package shard

import (
	"context"

	"repro/internal/core"
	"repro/metrics"
)

// StripeSnapshot is the observable state of one stripe.
type StripeSnapshot struct {
	// Index is the stripe's position in the map.
	Index int
	// Len is the stripe's key count.
	Len int
	// LockSpec and BackendSpec are the specs the stripe's current lock
	// and backend were built from (live values — they change under
	// Reconfigure).
	LockSpec    string
	BackendSpec string
	// Ordered reports whether the stripe's current backend maintains key
	// order (satisfies store.Ordered).
	Ordered bool
	// Swaps is how many times this stripe has been reconfigured.
	Swaps uint64
	// Scans counts scan work — one per Scan attempt (including attempts
	// rejected with ErrUnordered: demand is a signal even when the
	// backend cannot serve it), one per refilling ScanChunked round (a
	// round re-acquires stripe locks like a fresh Scan, keeping the
	// scan-vs-acquisitions ratio meaningful). Every scan visits every
	// stripe, so this is the map-level count, identical across a
	// snapshot's stripes — it rides here because per-stripe policies
	// (shard.Policy) see only stripe snapshots.
	Scans uint64
	// DeadlineAttempts counts deadline-bounded point operations that
	// arrived at this stripe: context operations whose context can end
	// (Done() != nil). DeadlineMisses counts the subset that expired
	// before reaching the table. Monotonic, and deliberately not reset by
	// Reconfigure — a swap changes the mechanism, not the objective, so
	// the slo policy can read one coherent series across its own swaps.
	// Both are the sums of the per-class arrays below.
	DeadlineAttempts uint64
	DeadlineMisses   uint64
	// ClassDeadlineAttempts and ClassDeadlineMisses break the same
	// counters down by request class (WithClass; the wire protocol's
	// class byte). Index 0 is unclassified traffic — in-process callers
	// that never set a class land there, so the pooled totals above are
	// what they always were.
	ClassDeadlineAttempts [NumClasses]uint64
	ClassDeadlineMisses   [NumClasses]uint64
	// OptimisticHits counts Gets this stripe served lock-free (seqlock
	// validation passed); OptimisticRetries counts failed attempts (a
	// writer was mid-section or moved the stamp inside the read window);
	// OptimisticFallbacks counts Gets that exhausted the retry budget
	// and took the stripe lock instead. All zero on a locked-read map
	// and on stripes whose backend declined store.OptimisticReader.
	// Hits are the Gets missing from Lock.Acquires: on a read-heavy
	// optimistic stripe, Acquires ≈ write volume while hits carry the
	// read volume.
	OptimisticHits      uint64
	OptimisticRetries   uint64
	OptimisticFallbacks uint64
	// Lock is the stripe lock's CR event counters, including those of
	// retired locks from before any reconfiguration (zero when the spec
	// set stats=false).
	Lock core.Snapshot
	// Fairness summarizes the stripe's recorded admission history (zero
	// Admissions when history recording is off or no identified client
	// has been admitted).
	Fairness metrics.Summary
}

// Snapshot is the observable state of the whole map: per-stripe detail
// plus rolled-up totals.
type Snapshot struct {
	Stripes []StripeSnapshot
	// Lock is the field-wise sum of every stripe's lock counters.
	Lock core.Snapshot
	// Len is the total key count.
	Len int
	// Swaps is the total reconfiguration count across stripes.
	Swaps uint64
	// Scans is the map-level scan-attempt count (not a per-stripe sum:
	// every scan visits every stripe).
	Scans uint64
	// DeadlineAttempts and DeadlineMisses are the per-stripe deadline
	// counters summed across stripes; the Class arrays are the same sums
	// broken down by request class (WithClass).
	DeadlineAttempts      uint64
	DeadlineMisses        uint64
	ClassDeadlineAttempts [NumClasses]uint64
	ClassDeadlineMisses   [NumClasses]uint64
	// OptimisticHits/Retries/Fallbacks are the per-stripe optimistic
	// read-path counters summed across stripes.
	OptimisticHits      uint64
	OptimisticRetries   uint64
	OptimisticFallbacks uint64
}

// Snapshot collects per-stripe lengths, lock counters, and fairness
// summaries. The stripe lock is held only to read the table length and
// capture the history slice header — never for the O(HistoryCap) summary
// work, which would stall every request queued behind a monitoring
// scrape. Reading the captured history outside the lock is safe because
// the recorder's storage is preallocated to the full cap (recording stops
// rather than reallocate, see New), entries are immutable once written
// (the lock release/acquire orders them before us), concurrent appends
// touch only indices beyond our captured length, and this package never
// calls Reset — the condition metrics.History's ownership rule sets for
// holding an aliasing view. The cross-stripe view is per-stripe
// consistent.
func (m *Map) Snapshot() Snapshot {
	out, _ := m.snapshotImpl(nil, false)
	return out
}

// SnapshotContext is Snapshot with every stripe acquisition bounded by
// ctx: observability stays deadline-bounded even when the stripe it wants
// to observe is the one that collapsed.
func (m *Map) SnapshotContext(ctx context.Context) (Snapshot, error) {
	return m.snapshotImpl(ctx, false)
}

// SnapshotLite is Snapshot minus the expensive fairness instruments: the
// per-stripe Fairness carries only Admissions and RecentLWSS (the
// recorder's O(1) incrementally maintained trailing distinct count);
// AvgLWSS, MTTR, Gini, and RSTDDEV — each O(history) or O(history log
// history) over up to HistoryCap records per stripe — come back zero.
// It is the sampling path for steady-state monitors (the adaptation
// controller, shardd's /metrics sampler): a monitor that polls on an
// interval must not recompute a full-history Gini per stripe per tick,
// which would starve the data plane the monitoring exists to help.
// Acquisition is bounded by ctx, so a monitor is not held hostage by a
// stripe mid-migration. A nil ctx means unbounded (the plain path).
func (m *Map) SnapshotLite(ctx context.Context) (Snapshot, error) {
	return m.snapshotImpl(ctx, true)
}

func (m *Map) snapshotImpl(ctx context.Context, lite bool) (Snapshot, error) {
	if lite {
		// The lite path is the steady-state sampling path (controller,
		// /metrics), which makes it the natural heartbeat for epoch
		// collection: one cheap advance attempt per sample keeps retired
		// descriptors from waiting on the next Reconfigure to be counted
		// dead.
		m.epoch.TryAdvance()
	}
	out := Snapshot{
		Stripes: make([]StripeSnapshot, len(m.stripes)),
		Scans:   m.scans.Load(),
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		d, err := s.lockCurrentContext(ctx)
		if err != nil {
			return Snapshot{}, err
		}
		ln := d.table.Len()
		var h metrics.History
		recent := 0
		if s.rec != nil {
			h = s.rec.History()
			// The incremental trailing distinct count is maintained under
			// the stripe lock (Record runs in the critical section), so it
			// must be read here, before the release — but it is O(1), which
			// is the point: the lite path pays one integer read where the
			// standalone metrics.RecentLWSS walk pays O(window).
			recent = s.rec.RecentDistinct()
		}
		d.mu.Unlock()
		ls := d.snapshot()
		var fairness metrics.Summary
		if lite {
			fairness = metrics.Summary{
				Admissions: len(h),
				RecentLWSS: float64(recent),
			}
		} else {
			fairness = metrics.Summarize(h, m.window)
		}
		var clsA, clsM [NumClasses]uint64
		var attempts, misses uint64
		for c := 0; c < NumClasses; c++ {
			clsA[c] = s.deadlineAttempts[c].Load()
			clsM[c] = s.deadlineMisses[c].Load()
			attempts += clsA[c]
			misses += clsM[c]
			out.ClassDeadlineAttempts[c] += clsA[c]
			out.ClassDeadlineMisses[c] += clsM[c]
		}
		oh, orr, of := s.optHits.Load(), s.optRetries.Load(), s.optFallbacks.Load()
		out.Stripes[i] = StripeSnapshot{
			Index:                 i,
			Len:                   ln,
			LockSpec:              d.lockSpec,
			BackendSpec:           d.backendSpec,
			Ordered:               d.ordered != nil,
			Swaps:                 d.swaps,
			Scans:                 out.Scans,
			DeadlineAttempts:      attempts,
			DeadlineMisses:        misses,
			ClassDeadlineAttempts: clsA,
			ClassDeadlineMisses:   clsM,
			OptimisticHits:        oh,
			OptimisticRetries:     orr,
			OptimisticFallbacks:   of,
			Lock:                  ls,
			Fairness:              fairness,
		}
		out.Len += ln
		out.Lock = out.Lock.Add(ls)
		out.Swaps += d.swaps
		out.DeadlineAttempts += attempts
		out.DeadlineMisses += misses
		out.OptimisticHits += oh
		out.OptimisticRetries += orr
		out.OptimisticFallbacks += of
	}
	return out, nil
}
