package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/shard"
)

// scriptedSample is a hand-built sampler cache entry: two stripes with
// distinct values in every counter /metrics renders, stripe 1 exercising
// the zero-suppression rules (no optimistic traffic, three silent classes,
// no recent LWSS) and stripe 0 their edge: a class with attempts and no
// misses keeps its zero. Fields are set by selector, not composite literal, so
// the script reads the same whether they are declared on the snapshot
// types or promoted from an embedded counter set.
func scriptedSample() *metricsSample {
	var s0, s1 shard.StripeSnapshot
	s0.Index, s0.Len = 0, 40
	s0.DeadlineAttempts, s0.DeadlineMisses = 100, 7
	s0.ClassDeadlineAttempts = [shard.NumClasses]uint64{55, 30, 10, 5}
	s0.ClassDeadlineMisses = [shard.NumClasses]uint64{4, 2, 1, 0}
	s0.OptimisticHits, s0.OptimisticRetries, s0.OptimisticFallbacks = 500, 11, 2
	s0.Lock.Acquires, s0.Lock.Handoffs, s0.Lock.Culls = 1000, 31, 17
	s0.Lock.Parks, s0.Lock.Cancels = 23, 7
	s0.Fairness.RecentLWSS = 4

	s1.Index, s1.Len = 1, 2
	s1.DeadlineAttempts, s1.DeadlineMisses = 8, 5
	s1.ClassDeadlineAttempts = [shard.NumClasses]uint64{0, 0, 8, 0}
	s1.ClassDeadlineMisses = [shard.NumClasses]uint64{0, 0, 5, 0}
	s1.Lock.Acquires, s1.Lock.Handoffs, s1.Lock.Culls = 200, 5, 3
	s1.Lock.Parks, s1.Lock.Cancels = 6, 5

	var snap shard.Snapshot
	snap.Stripes = []shard.StripeSnapshot{s0, s1}
	snap.Len = 42
	snap.DeadlineAttempts, snap.DeadlineMisses = 108, 12
	snap.ClassDeadlineAttempts = [shard.NumClasses]uint64{55, 30, 18, 5}
	snap.ClassDeadlineMisses = [shard.NumClasses]uint64{4, 2, 6, 0}
	snap.OptimisticHits, snap.OptimisticRetries, snap.OptimisticFallbacks = 500, 11, 2
	snap.Lock.Acquires, snap.Lock.Handoffs, snap.Lock.Culls = 1200, 36, 20
	snap.Lock.Parks, snap.Lock.Cancels = 29, 12

	delta := shard.Counters{DeadlineAttempts: 16, DeadlineMisses: 4}
	return &metricsSample{snap: snap, delta: delta, interval: time.Second}
}

// goldenSeries is every series /metrics emitted for scriptedSample before
// the counter set moved behind shard.Counters, pinned by name and value.
const goldenSeries = `
shardd_connections_accepted_total 0
shardd_connections_active 0
shardd_ops_total 0
shardd_bad_frames_total 0
shardd_len 42
shardd_deadline_attempts_total 108
shardd_deadline_misses_total 12
shardd_class_deadline_attempts_total{class="0"} 55
shardd_class_deadline_misses_total{class="0"} 4
shardd_class_deadline_attempts_total{class="1"} 30
shardd_class_deadline_misses_total{class="1"} 2
shardd_class_deadline_attempts_total{class="2"} 18
shardd_class_deadline_misses_total{class="2"} 6
shardd_class_deadline_attempts_total{class="3"} 5
shardd_class_deadline_misses_total{class="3"} 0
shardd_lock_acquires_total 1200
shardd_lock_parks_total 29
shardd_lock_culls_total 20
shardd_lock_cancels_total 12
shardd_lock_handoffs_total 36
shardd_optimistic_hits_total 500
shardd_optimistic_retries_total 11
shardd_optimistic_fallbacks_total 2
shardd_interval_deadline_attempts 16
shardd_interval_deadline_misses 4
shardd_interval_miss_rate 0.250000
shardd_stripe_len{stripe="0"} 40
shardd_stripe_deadline_attempts_total{stripe="0"} 100
shardd_stripe_deadline_misses_total{stripe="0"} 7
shardd_stripe_class_deadline_attempts_total{stripe="0",class="0"} 55
shardd_stripe_class_deadline_misses_total{stripe="0",class="0"} 4
shardd_stripe_class_deadline_attempts_total{stripe="0",class="1"} 30
shardd_stripe_class_deadline_misses_total{stripe="0",class="1"} 2
shardd_stripe_class_deadline_attempts_total{stripe="0",class="2"} 10
shardd_stripe_class_deadline_misses_total{stripe="0",class="2"} 1
shardd_stripe_class_deadline_attempts_total{stripe="0",class="3"} 5
shardd_stripe_class_deadline_misses_total{stripe="0",class="3"} 0
shardd_stripe_optimistic_hits_total{stripe="0"} 500
shardd_stripe_optimistic_retries_total{stripe="0"} 11
shardd_stripe_optimistic_fallbacks_total{stripe="0"} 2
shardd_stripe_lock_parks_total{stripe="0"} 23
shardd_stripe_lock_cancels_total{stripe="0"} 7
shardd_stripe_recent_lwss{stripe="0"} 4.0
shardd_stripe_len{stripe="1"} 2
shardd_stripe_deadline_attempts_total{stripe="1"} 8
shardd_stripe_deadline_misses_total{stripe="1"} 5
shardd_stripe_class_deadline_attempts_total{stripe="1",class="2"} 8
shardd_stripe_class_deadline_misses_total{stripe="1",class="2"} 5
shardd_stripe_lock_parks_total{stripe="1"} 6
shardd_stripe_lock_cancels_total{stripe="1"} 5
`

func scrape(t *testing.T, sample *metricsSample) string {
	t.Helper()
	s, err := New(Config{Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.metricsCache.Store(sample)
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestMetricsGolden: every series the page carried for the scripted
// sample is still there with the same value, and the only lines it gained
// are comments and lock events: both levels now carry all of them, where
// the map level had five and the stripe level two.
func TestMetricsGolden(t *testing.T) {
	page := scrape(t, scriptedSample())
	want := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(goldenSeries), "\n") {
		want[line] = false
	}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if _, ok := want[line]; ok {
			if want[line] {
				t.Errorf("series emitted twice: %s", line)
			}
			want[line] = true
			continue
		}
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "shardd_lock_") && !strings.HasPrefix(line, "shardd_stripe_lock_") {
			t.Errorf("series not on the page before: %s", line)
		}
	}
	for line, seen := range want {
		if !seen {
			t.Errorf("series gone or changed: %s", line)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// checkExposition is a strict reader of the text exposition format's
// grouping rule: every series sits under a # TYPE line of its own family,
// and a family's lines form one group.
func checkExposition(t *testing.T, page string) {
	t.Helper()
	current, typed := "", make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if typed[f[2]] {
				t.Errorf("family %s appears in two groups", f[2])
			}
			if f[3] != "counter" && f[3] != "gauge" {
				t.Errorf("family %s has type %q", f[2], f[3])
			}
			current, typed[f[2]] = f[2], true
			continue
		}
		if name := line[:strings.IndexAny(line, "{ ")]; name != current {
			t.Errorf("series outside its family's group (in %q): %s", current, line)
		}
	}
}

func TestMetricsFamiliesContiguousAndTyped(t *testing.T) {
	checkExposition(t, scrape(t, scriptedSample()))
	checkExposition(t, scrape(t, nil)) // before the first sample
}

// fillLeaves sets every uint64 under v to a distinct nonzero value.
func fillLeaves(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i), next)
		}
	}
}

// TestEveryCounterIsExported: whatever shard.Counters enumerates is on
// /metrics at the map level and at the stripe level and in INFO, under
// the enumeration's name.
func TestEveryCounterIsExported(t *testing.T) {
	var snap shard.Snapshot
	snap.Stripes = make([]shard.StripeSnapshot, 2)
	next := uint64(0)
	fillLeaves(reflect.ValueOf(&snap.Counters).Elem(), &next)
	for i := range snap.Stripes {
		snap.Stripes[i].Index = i
		fillLeaves(reflect.ValueOf(&snap.Stripes[i].Counters).Elem(), &next)
	}
	page := scrape(t, &metricsSample{snap: snap, interval: time.Second})
	checkExposition(t, page)
	series := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); !strings.Contains(page, "\n"+line+"\n") {
			t.Errorf("/metrics lacks %s", line)
		}
	}
	snap.Each(func(name string, class int, v uint64) {
		if class < 0 {
			series("shardd_%s_total %d", name, v)
		} else {
			series("shardd_%s_total{class=\"%d\"} %d", name, class, v)
		}
	})
	for _, st := range snap.Stripes {
		st.Each(func(name string, class int, v uint64) {
			if class < 0 {
				series("shardd_stripe_%s_total{stripe=\"%d\"} %d", name, st.Index, v)
			} else {
				series("shardd_stripe_%s_total{stripe=\"%d\",class=\"%d\"} %d", name, st.Index, class, v)
			}
		})
	}

	// INFO: a live map this time, since info() snapshots it.
	s, err := New(Config{Stripes: 2, ReadPath: "optimistic"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(shard.WithClass(context.Background(), 1), time.Minute)
	defer cancel()
	for k := uint64(0); k < 64; k++ {
		if _, err := s.m.PutContext(ctx, k, k); err != nil {
			t.Fatal(err)
		}
		s.m.Get(k)
	}
	// Snapshots acquire the stripe locks they report on, so INFO sits
	// between the snapshots either side of it (Sub saturates: a <= b
	// counter-wise iff a.Sub(b) is zero).
	before := s.m.Snapshot().Counters
	info := string(s.info())
	want := s.m.Snapshot().Counters
	got, err := shard.ParseCounters(info)
	if err != nil || before.Sub(got) != (shard.Counters{}) || got.Sub(want) != (shard.Counters{}) {
		t.Fatalf("INFO parses to %+v, %v\nthe map held %+v\nand then %+v", got, err, before, want)
	}
	if want.OptimisticHits == 0 || want.ClassDeadlineAttempts[1] != 64 || want.Lock.Acquires == 0 {
		t.Fatalf("the traffic left no mark: %+v", want)
	}
	want.Each(func(name string, class int, _ uint64) {
		if class >= 0 {
			name = fmt.Sprintf("%s[%d]", name, class)
		}
		if !strings.Contains(info, "\n"+name+"=") {
			t.Errorf("INFO lacks %s=", name)
		}
	})
}
