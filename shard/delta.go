package shard

// StripeDelta is the per-interval change of one stripe between two
// snapshots: the per-interval rate a monitor reports, where the
// snapshots themselves are cumulative. The embedded Counters are the
// interval's difference (Counters.Sub) — e.g. DeadlineAttempts and
// DeadlineMisses are an interval's deadline-miss denominator and
// numerator.
type StripeDelta struct {
	Counters
	// Index is the stripe's position in the map.
	Index int
	// Len is the key-count change (can be negative: deletions).
	Len int
	// Admissions is how many identified admissions the interval recorded
	// (0 once a capped history stops recording).
	Admissions int
}

// SnapshotDelta is the change of the whole map between two snapshots:
// the rolled-up Counters differenced, plus per-stripe detail.
type SnapshotDelta struct {
	Counters
	Stripes []StripeDelta
	// Len is the total key-count change.
	Len int
}

// Sub returns the change from prev to s — per-stripe and rolled-up
// per-interval rates without hand-rolled per-stripe loops. Counters
// subtract saturating at zero (Counters.Sub), so pairing snapshots from
// different maps by mistake cannot produce wrapped rates. prev should be
// the earlier snapshot of the same map; a zero prev yields s itself as
// the delta.
func (s Snapshot) Sub(prev Snapshot) SnapshotDelta {
	d := SnapshotDelta{
		Counters: s.Counters.Sub(prev.Counters),
		Stripes:  make([]StripeDelta, len(s.Stripes)),
		Len:      s.Len - prev.Len,
	}
	for i, cur := range s.Stripes {
		// Tolerate a prev taken from a differently-sized map (fewer
		// stripes than s): missing stripes subtract a zero baseline, so
		// the delta degrades to the cumulative value instead of panicking
		// mid-interval.
		var p StripeSnapshot
		if i < len(prev.Stripes) {
			p = prev.Stripes[i]
		}
		d.Stripes[i] = StripeDelta{
			Counters:   cur.Counters.Sub(p.Counters),
			Index:      cur.Index,
			Len:        cur.Len - p.Len,
			Admissions: cur.Fairness.Admissions - p.Fairness.Admissions,
		}
	}
	return d
}
