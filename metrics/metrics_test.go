package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLWSSDistinct(t *testing.T) {
	cases := []struct {
		h    History
		want int
	}{
		{History{}, 0},
		{History{1}, 1},
		{History{1, 1, 1}, 1},
		{History{1, 2, 3}, 3},
		{History{1, 2, 1, 2}, 2},
	}
	for _, c := range cases {
		if got := LWSS(c.h); got != c.want {
			t.Errorf("LWSS(%v)=%d want %d", c.h, got, c.want)
		}
	}
}

func TestAvgLWSSPaperExample(t *testing.T) {
	// §1: admission order A B C A B C D A E; LWSS for period 0-5 is 3.
	h := History{0, 1, 2, 0, 1, 2, 3, 0, 4}
	if got := LWSS(h[0:6]); got != 3 {
		t.Fatalf("paper example LWSS=%d want 3", got)
	}
}

func TestAvgLWSSWindowing(t *testing.T) {
	// Two abutting windows of 4: {1,2,3,4} (LWSS 4) and {1,1,1,1} (LWSS 1).
	h := History{1, 2, 3, 4, 1, 1, 1, 1}
	if got := AvgLWSS(h, 4); !almostEq(got, 2.5) {
		t.Fatalf("AvgLWSS=%v want 2.5", got)
	}
}

func TestAvgLWSSDropsShortTail(t *testing.T) {
	// Window 4 with a 1-element tail: tail is shorter than window/2 and a
	// full window exists, so it is dropped.
	h := History{1, 2, 3, 4, 9}
	if got := AvgLWSS(h, 4); !almostEq(got, 4) {
		t.Fatalf("AvgLWSS=%v want 4 (tail dropped)", got)
	}
}

func TestAvgLWSSEmptyAndPanic(t *testing.T) {
	if got := AvgLWSS(nil, 10); got != 0 {
		t.Fatalf("empty history AvgLWSS=%v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AvgLWSS with window 0 must panic")
		}
	}()
	AvgLWSS(History{1}, 0)
}

func TestAvgLWSSBounds(t *testing.T) {
	// Property: 1 <= AvgLWSS <= min(window, #distinct) for non-empty
	// histories.
	f := func(seed uint64, n uint8, threads uint8) bool {
		if n == 0 {
			n = 1
		}
		nt := int(threads%16) + 1
		rng := xrand.New(seed)
		h := make(History, int(n))
		for i := range h {
			h[i] = int32(rng.Intn(nt))
		}
		got := AvgLWSS(h, 8)
		return got >= 1 && got <= float64(min(8, nt))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTTRs(t *testing.T) {
	// Thread 1 at 0 and 2 (TTR 2); thread 2 at 1 and 3 (TTR 2).
	h := History{1, 2, 1, 2}
	got := TTRs(h)
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Fatalf("TTRs=%v", got)
	}
}

func TestMTTRCyclic(t *testing.T) {
	// Perfect round-robin over n threads has every TTR equal to n.
	for _, n := range []int{2, 3, 5, 8} {
		h := make(History, n*10)
		for i := range h {
			h[i] = int32(i % n)
		}
		if got := MTTR(h); !almostEq(got, float64(n)) {
			t.Fatalf("n=%d MTTR=%v", n, got)
		}
	}
}

func TestMTTRGreedy(t *testing.T) {
	// One thread monopolizes: every reacquire is immediate.
	h := History{7, 7, 7, 7, 7}
	if got := MTTR(h); !almostEq(got, 1) {
		t.Fatalf("MTTR=%v want 1", got)
	}
}

func TestMTTRNoReacquire(t *testing.T) {
	if got := MTTR(History{1, 2, 3}); got != 0 {
		t.Fatalf("MTTR=%v want 0", got)
	}
}

func TestMTTREvenMedian(t *testing.T) {
	// TTRs {1,3}: median 2.
	h := History{5, 5, 9, 9, 9} // TTR(5)=1 at idx1; TTR(9)=1,1 → {1,1,1}? recompute
	_ = h
	// Construct explicitly: history 1,1,2,3,2 → TTRs: 1 (thread1), 2
	// (thread2 at 2 and 4). Median of {1,2} = 1.5.
	h2 := History{1, 1, 2, 3, 2}
	if got := MTTR(h2); !almostEq(got, 1.5) {
		t.Fatalf("MTTR=%v want 1.5", got)
	}
}

func TestGiniUniformIsZero(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		m := int(n%20) + 1
		vs := make([]float64, m)
		for i := range vs {
			vs[i] = float64(v) + 1
		}
		return almostEq(Gini(vs), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGiniRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%20) + 2
		rng := xrand.New(seed)
		vs := make([]float64, m)
		for i := range vs {
			vs[i] = float64(rng.Intn(1000))
		}
		g := Gini(vs)
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGiniMaximalUnfairness(t *testing.T) {
	// One thread does all the work among n: G = (n-1)/n → 1 as n grows.
	vs := make([]float64, 10)
	vs[0] = 100
	if got, want := Gini(vs), 0.9; !almostEq(got, want) {
		t.Fatalf("Gini=%v want %v", got, want)
	}
}

func TestGiniScaleInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		vs := make([]float64, 12)
		ws := make([]float64, 12)
		for i := range vs {
			vs[i] = float64(rng.Intn(100) + 1)
			ws[i] = vs[i] * 7
		}
		return almostEq(Gini(vs), Gini(ws))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGiniEdgeCases(t *testing.T) {
	if Gini(nil) != 0 {
		t.Fatal("Gini(nil) != 0")
	}
	if Gini([]float64{0, 0, 0}) != 0 {
		t.Fatal("Gini(zeros) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative value must panic")
		}
	}()
	Gini([]float64{1, -1})
}

func TestRSTDDEV(t *testing.T) {
	if got := RSTDDEV([]float64{5, 5, 5, 5}); !almostEq(got, 0) {
		t.Fatalf("uniform RSTDDEV=%v", got)
	}
	// {2, 4}: mean 3, population stddev 1 → 1/3.
	if got := RSTDDEV([]float64{2, 4}); !almostEq(got, 1.0/3) {
		t.Fatalf("RSTDDEV=%v want 1/3", got)
	}
	if got := RSTDDEV(nil); got != 0 {
		t.Fatalf("RSTDDEV(nil)=%v", got)
	}
	if got := RSTDDEV([]float64{0, 0}); got != 0 {
		t.Fatalf("RSTDDEV(zeros)=%v", got)
	}
}

func TestCounts(t *testing.T) {
	h := History{1, 2, 1, 1, 3}
	c := Counts(h)
	if c[1] != 3 || c[2] != 1 || c[3] != 1 || len(c) != 3 {
		t.Fatalf("Counts=%v", c)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 10; i++ {
		r.Record(i % 3)
	}
	if r.Len() != 10 {
		t.Fatalf("Len=%d", r.Len())
	}
	if LWSS(r.History()) != 3 {
		t.Fatalf("recorded LWSS=%d", LWSS(r.History()))
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRecorderSnapshotSurvivesReset(t *testing.T) {
	r := NewRecorder(4)
	for _, id := range []int{1, 2, 1} {
		r.Record(id)
	}
	snap := r.Snapshot()
	alias := r.History()
	r.Reset()
	for i := 0; i < 3; i++ {
		r.Record(9) // refills the storage the alias points into
	}
	want := History{1, 2, 1}
	for i, id := range want {
		if snap[i] != id {
			t.Fatalf("Snapshot[%d]=%d after Reset, want %d", i, snap[i], id)
		}
	}
	// The documented hazard: the aliasing History was overwritten in place.
	if len(alias) == 3 && alias[0] == 9 && snap[0] == 1 {
		return
	}
	t.Fatalf("aliasing contract changed: alias=%v snap=%v", alias, snap)
}

func TestSummarizeFIFOVersusCR(t *testing.T) {
	// A synthetic FIFO history over 32 threads vs a CR history where only
	// 5 circulate with rare promotion. The summary must rank them the way
	// Figure 4 does: CR has far smaller LWSS and MTTR, slightly larger
	// Gini.
	const threads, rounds = 32, 1000
	fifo := make(History, 0, threads*rounds)
	for r := 0; r < rounds; r++ {
		for th := 0; th < threads; th++ {
			fifo = append(fifo, int32(th))
		}
	}
	rng := xrand.New(1)
	cr := make(History, 0, threads*rounds)
	acs := []int32{0, 1, 2, 3, 4}
	nextOutside := int32(5)
	for len(cr) < threads*rounds {
		for _, th := range acs {
			cr = append(cr, th)
		}
		if rng.Bernoulli(200) {
			// Promote an outsider into the ACS, displacing one member.
			acs[rng.Intn(len(acs))] = nextOutside
			nextOutside = (nextOutside + 1) % threads
		}
	}
	sf := Summarize(fifo, DefaultWindow)
	sc := Summarize(cr, DefaultWindow)
	if !almostEq(sf.AvgLWSS, threads) {
		t.Fatalf("FIFO AvgLWSS=%v want %d", sf.AvgLWSS, threads)
	}
	if !almostEq(sf.MTTR, threads) {
		t.Fatalf("FIFO MTTR=%v want %d", sf.MTTR, threads)
	}
	if !almostEq(sf.Gini, 0) || !almostEq(sf.RSTDDEV, 0) {
		t.Fatalf("FIFO should be perfectly fair: %+v", sf)
	}
	if sc.AvgLWSS > 8 {
		t.Fatalf("CR AvgLWSS=%v, expected near ACS size 5", sc.AvgLWSS)
	}
	if sc.MTTR > 6 {
		t.Fatalf("CR MTTR=%v, expected near 5", sc.MTTR)
	}
	if sc.Gini <= sf.Gini {
		t.Fatalf("CR Gini (%v) should exceed FIFO Gini (%v)", sc.Gini, sf.Gini)
	}
	if s := sc.String(); s == "" {
		t.Fatal("empty summary string")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRecentLWSS(t *testing.T) {
	if got := RecentLWSS(nil, 4); got != 0 {
		t.Fatalf("RecentLWSS(empty) = %d", got)
	}
	// Old diversity, recent collapse: 4 distinct ids early, then a long
	// run of one id. The trailing window sees only the collapsed set.
	h := History{1, 2, 3, 4, 9, 9, 9, 9, 9, 9}
	if got := RecentLWSS(h, 4); got != 1 {
		t.Fatalf("RecentLWSS(window 4) = %d want 1", got)
	}
	if got := RecentLWSS(h, 100); got != 5 {
		t.Fatalf("RecentLWSS(window > len) = %d want 5", got)
	}
	if got := LWSS(h); got != 5 {
		t.Fatalf("LWSS = %d want 5", got)
	}
	s := Summarize(h, 4)
	if s.RecentLWSS != 1 {
		t.Fatalf("Summarize.RecentLWSS = %v want 1", s.RecentLWSS)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecentLWSS(window 0) did not panic")
		}
	}()
	RecentLWSS(h, 0)
}

// TestRecordIDsAreStoredIn32Bits: the history holds int32 ids. Every id
// that fits round-trips, negative ones included; one that does not is a
// caller bug and panics instead of aliasing another thread.
func TestRecordIDsAreStoredIn32Bits(t *testing.T) {
	r := NewRecorder(4)
	for _, id := range []int{0, -1, math.MaxInt32, math.MinInt32} {
		r.Record(id)
	}
	if h := r.History(); h[1] != -1 || h[2] != math.MaxInt32 || h[3] != math.MinInt32 {
		t.Fatalf("ids did not round-trip: %v", h)
	}
	big := int64(1) << 32
	if int64(int(big)) != big {
		return // 32-bit int: every id fits
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Record(1<<32) did not panic")
		}
		if r.Len() != 4 {
			t.Fatalf("a rejected id was recorded: Len %d", r.Len())
		}
	}()
	r.Record(int(big))
}

// TestResetDoesNotAllocate: callers swap and reset recorders inside their
// critical section, so Reset must keep the history's storage.
func TestResetDoesNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			r.Record(i % 8)
		}
		r.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Record+Reset cycle allocates %.1f times", allocs)
	}
}
