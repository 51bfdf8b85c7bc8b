package shard

import (
	"context"

	"repro/metrics"
)

// StripeSnapshot is the observable state of one stripe: its cumulative
// Counters plus what is not a counter.
type StripeSnapshot struct {
	Counters
	// Index is the stripe's position in the map.
	Index int
	// Len is the stripe's key count.
	Len int
	// Fairness summarizes the stripe's recorded admission history (zero
	// Admissions when history recording is off or no identified client
	// has been admitted).
	Fairness metrics.Summary
}

// Snapshot is the observable state of the whole map: per-stripe detail
// plus the stripes' Counters rolled up (Counters.Add).
type Snapshot struct {
	Counters
	Stripes []StripeSnapshot
	// Len is the total key count.
	Len int
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

// SnapshotLite is Snapshot minus the expensive fairness instruments: the
// per-stripe Fairness carries only Admissions and RecentLWSS (a walk of
// the trailing metrics.DefaultWindow admissions, outside the stripe lock);
// AvgLWSS, MTTR, Gini, and RSTDDEV — each O(history) or O(history log
// history) over up to HistoryCap records per stripe — come back zero.
// It is the sampling path for steady-state monitors (shardd's /metrics
// sampler and INFO verb): a monitor that polls on an interval must not
// recompute a full-history Gini per stripe per tick, which would starve
// the data plane the monitoring exists to help. Acquisition is bounded
// by ctx, so a monitor is not held hostage by a collapsed stripe. A nil
// ctx means unbounded (the plain path).
func (m *Map) SnapshotLite(ctx context.Context) (Snapshot, error) {
	return m.snapshotImpl(ctx, true)
}

func (m *Map) snapshotImpl(ctx context.Context, lite bool) (Snapshot, error) {
	out := Snapshot{Stripes: make([]StripeSnapshot, len(m.stripes))}
	for i := range m.stripes {
		s := &m.stripes[i]
		if err := s.lock(ctx); err != nil {
			return Snapshot{}, err
		}
		ln := s.table.Len()
		var h metrics.History
		if s.rec != nil {
			h = s.rec.History()
		}
		s.mu.Unlock()
		var fairness metrics.Summary
		if lite {
			fairness.Admissions = len(h)
			if len(h) > 0 {
				fairness.RecentLWSS = float64(metrics.RecentLWSS(h, metrics.DefaultWindow))
			}
		} else {
			fairness = metrics.Summarize(h, metrics.DefaultWindow)
		}
		c := s.load()
		out.Stripes[i] = StripeSnapshot{
			Counters: c,
			Index:    i,
			Len:      ln,
			Fairness: fairness,
		}
		out.Len += ln
		out.Counters = out.Counters.Add(c)
	}
	return out, nil
}
