// Package metrics implements the fairness and locality instruments defined
// in §1 and §6 of "Malthusian Locks":
//
//   - the lock working set size (LWSS): the number of distinct threads that
//     acquired a lock within a window of the admission history, averaged
//     over disjoint abutting windows (short-term fairness, in threads);
//   - the median time to reacquire (MTTR): at each admission, the number of
//     admissions since the acquiring thread last held the lock, analogous
//     to reuse distance in memory management;
//   - the Gini coefficient over per-thread completed work (long-term
//     fairness; 0 is ideally fair, 1 maximally unfair);
//   - the relative standard deviation (RSTDDEV) of per-thread work.
//
// Histories are sequences of thread identifiers in admission (ordinal
// acquisition) order. The package is agnostic about where a history comes
// from: the real lock harness records one inside the critical section, and
// the simulator records one per simulated lock.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// DefaultWindow is the LWSS window used throughout the paper: "In this
// paper we use a window size of 1000 acquisitions, well above the maximum
// number of participating threads."
const DefaultWindow = 1000

// History is an admission history: element i is the id of the thread that
// performed the i-th lock acquisition. Ids are worker indexes and are
// stored in 32 bits: a 2^20-admission window is 4 MB, not 8.
type History []int32

// Recorder accumulates an admission history. It is not synchronized: the
// paper's protocol is to record inside the critical section, where the lock
// itself serializes appends. Record is therefore only the append: every
// instrument, RecentLWSS included, is computed from the history afterwards,
// outside the section it would otherwise lengthen.
type Recorder struct {
	//lockcheck:guardedby external
	history History
}

// NewRecorder returns a Recorder with capacity pre-sized for n admissions.
func NewRecorder(n int) *Recorder {
	return &Recorder{history: make(History, 0, n)}
}

// Record appends one admission by thread id. The id is stored in 32 bits
// (see History); one that does not fit is a caller bug and panics.
//
//lockcheck:cs
func (r *Recorder) Record(tid int) {
	id := int32(tid)
	if int(id) != tid {
		panic("metrics: Recorder.Record id does not fit in 32 bits")
	}
	r.history = append(r.history, id)
}

// History returns the recorded admission history.
//
// Ownership rule: the returned slice aliases the recorder's storage and is
// valid only until the next Reset — Reset truncates the storage in place,
// so a held History would silently fill with the admissions recorded
// afterwards. Callers that keep a history across Reset (or hand it to
// another goroutine) must use Snapshot instead.
func (r *Recorder) History() History { return r.history }

// Snapshot returns an independent copy of the admission history, safe to
// hold across Reset and to read while the recorder keeps recording under
// its owner's lock.
func (r *Recorder) Snapshot() History {
	h := make(History, len(r.history))
	copy(h, r.history)
	return h
}

// Len returns the number of recorded admissions.
func (r *Recorder) Len() int { return len(r.history) }

// Reset discards the recorded history but keeps the capacity (callers
// reset inside their critical section). It invalidates every slice
// previously returned by History (see the ownership rule there);
// Snapshot copies are unaffected.
func (r *Recorder) Reset() { r.history = r.history[:0] }

// LWSS returns the lock working set size of h: the number of distinct
// thread ids present.
func LWSS(h History) int {
	seen := make(map[int32]struct{}, 64)
	for _, id := range h {
		seen[id] = struct{}{}
	}
	return len(seen)
}

// AvgLWSS partitions h into disjoint abutting windows of the given size,
// computes the LWSS of each, and returns the mean. A trailing partial
// window shorter than size/2 is dropped so that a short tail cannot skew
// the average downward; longer tails participate scaled as-is, matching
// how the paper treats fixed-time runs. AvgLWSS of an empty history is 0.
func AvgLWSS(h History, window int) float64 {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: AvgLWSS window %d <= 0", window))
	}
	if len(h) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for start := 0; start < len(h); start += window {
		end := start + window
		if end > len(h) {
			end = len(h)
			if end-start < window/2 && n > 0 {
				break
			}
		}
		sum += float64(LWSS(h[start:end]))
		n++
	}
	return sum / float64(n)
}

// RecentLWSS returns the LWSS of the trailing window of h: the working
// set of the most recent min(window, len(h)) admissions. Where AvgLWSS
// averages over the whole history (a long-lived lock's past dilutes its
// present), RecentLWSS is the live demand signal a monitor wants: how many distinct threads are circulating *now*. It is 0 for an
// empty history, and — like every history-derived instrument — frozen
// once a capped recorder stops recording.
func RecentLWSS(h History, window int) int {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: RecentLWSS window %d <= 0", window))
	}
	if len(h) > window {
		h = h[len(h)-window:]
	}
	return LWSS(h)
}

// TTRs returns the time-to-reacquire sequence of h: for every admission by
// a thread that has acquired before, the number of admissions since its
// previous acquisition. First-time acquisitions contribute nothing.
//
// A thread that reacquires on the very next admission has TTR 1; under a
// perfectly cyclic schedule over n threads every TTR is n.
func TTRs(h History) []int {
	last := make(map[int32]int, 64)
	ttrs := make([]int, 0, len(h))
	for i, id := range h {
		if prev, ok := last[id]; ok {
			ttrs = append(ttrs, i-prev)
		}
		last[id] = i
	}
	return ttrs
}

// MTTR returns the median time to reacquire over the entire history, or 0
// if no thread ever reacquired.
func MTTR(h History) float64 {
	ttrs := TTRs(h)
	if len(ttrs) == 0 {
		return 0
	}
	sort.Ints(ttrs)
	mid := len(ttrs) / 2
	if len(ttrs)%2 == 1 {
		return float64(ttrs[mid])
	}
	return float64(ttrs[mid-1]+ttrs[mid]) / 2
}

// Counts returns the per-thread admission counts of h keyed by thread id.
func Counts(h History) map[int32]int {
	c := make(map[int32]int, 64)
	for _, id := range h {
		c[id]++
	}
	return c
}

// countValues extracts the work distribution as a slice.
func countValues(h History) []float64 {
	c := Counts(h)
	vs := make([]float64, 0, len(c))
	for _, v := range c {
		vs = append(vs, float64(v))
	}
	return vs
}

// Gini returns the Gini coefficient of the values: 0 when all are equal
// (ideally fair), approaching 1 as one participant dominates. Negative
// values are rejected; an empty or all-zero set yields 0.
func Gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	vs := make([]float64, n)
	copy(vs, values)
	sort.Float64s(vs)
	var cum, total float64
	for i, v := range vs {
		if v < 0 {
			panic("metrics: Gini of negative value")
		}
		// Weighted rank sum form: sum_i (2i - n + 1) * v_i (0-based).
		cum += float64(2*i-n+1) * v
		total += v
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// GiniHistory returns the Gini coefficient of per-thread work completed in
// h, counting only threads that appear. Callers that need to include
// never-admitted threads (total starvation) should use Gini over an
// explicit distribution with zeros.
func GiniHistory(h History) float64 {
	return Gini(countValues(h))
}

// RSTDDEV returns the relative standard deviation (population standard
// deviation divided by mean) of the values, or 0 when the mean is 0.
func RSTDDEV(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(values))) / mean
}

// RSTDDEVHistory returns RSTDDEV of per-thread work completed in h.
func RSTDDEVHistory(h History) float64 {
	return RSTDDEV(countValues(h))
}

// Summary bundles the fairness statistics the paper reports per run
// (Figure 4 rows).
type Summary struct {
	Admissions int
	AvgLWSS    float64
	// RecentLWSS is the working set of the trailing window only — the
	// live demand signal a monitor keys on (see RecentLWSS).
	RecentLWSS float64
	MTTR       float64
	Gini       float64
	RSTDDEV    float64
}

// Summarize computes the standard summary over h with the given LWSS
// window (use DefaultWindow for the paper's 1000).
func Summarize(h History, window int) Summary {
	return Summary{
		Admissions: len(h),
		AvgLWSS:    AvgLWSS(h, window),
		RecentLWSS: float64(RecentLWSS(h, window)),
		MTTR:       MTTR(h),
		Gini:       GiniHistory(h),
		RSTDDEV:    RSTDDEVHistory(h),
	}
}

// String renders the summary in Figure-4 style.
func (s Summary) String() string {
	return fmt.Sprintf("admissions=%d avgLWSS=%.1f MTTR=%.1f Gini=%.3f RSTDDEV=%.3f",
		s.Admissions, s.AvgLWSS, s.MTTR, s.Gini, s.RSTDDEV)
}
