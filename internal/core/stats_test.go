package core

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestStatsStripeSum hammers every event from many goroutines and checks
// that Read sums the stripes to the exact totals, with concurrent
// snapshots staying monotone.
func TestStatsStripeSum(t *testing.T) {
	s := NewStatsStripes(8)
	const (
		goroutines = 8
		iters      = 10_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Inc(EvCulls)
				s.Inc2(EvFastPath, EvAcquires)
				s.Inc3(EvPromotions, EvHandoffs, EvUnparks)
				s.Inc2(EvCancels, EvAbandons)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		// Concurrent snapshots must be safe (values monotone).
		var last uint64
		for i := 0; i < 1000; i++ {
			snap := s.Read()
			if snap.Acquires < last {
				t.Error("acquires went backwards")
				break
			}
			last = snap.Acquires
		}
		close(done)
	}()
	wg.Wait()
	<-done
	snap := s.Read()
	total := uint64(goroutines * iters)
	if snap.Culls != total || snap.Acquires != total || snap.FastPath != total ||
		snap.Promotions != total || snap.Handoffs != total || snap.Unparks != total ||
		snap.Cancels != total || snap.Abandons != total {
		t.Fatalf("stripe sums wrong: %+v want %d each", snap, total)
	}
	if snap.Parks != 0 || snap.SlowPath != 0 || snap.Reprovisions != 0 {
		t.Fatalf("untouched counters nonzero: %+v", snap)
	}
}

// TestStatsDisabled verifies the nil-stats zero-instrumentation mode:
// every method on a nil *Stats is a safe no-op.
func TestStatsDisabled(t *testing.T) {
	var s *Stats
	s.Inc(EvAcquires)
	s.Inc2(EvFastPath, EvAcquires)
	s.Inc3(EvPromotions, EvHandoffs, EvUnparks)
	if got := s.Read(); got != (Snapshot{}) {
		t.Fatalf("nil stats read %+v, want zero", got)
	}
	if s.Stripes() != 0 {
		t.Fatalf("nil stats stripes %d, want 0", s.Stripes())
	}
}

func TestStatsStripeCount(t *testing.T) {
	for n, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16} {
		if got := NewStatsStripes(n).Stripes(); got != want {
			t.Errorf("NewStatsStripes(%d).Stripes() = %d, want %d", n, got, want)
		}
	}
	if got := NewStats().Stripes(); got < 1 || got&(got-1) != 0 {
		t.Fatalf("NewStats stripes %d: want power of two >= 1", got)
	}
}

// TestStripeLayout asserts each stripe occupies whole cache lines so two
// stripes never share a coherence granule.
func TestStripeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(stripe{}); sz != stripeBytes {
		t.Fatalf("stripe size %d, want %d", sz, stripeBytes)
	}
	if stripeBytes%64 != 0 {
		t.Fatalf("stripe size %d not a multiple of the cache line", stripeBytes)
	}
	s := NewStatsStripes(4)
	a := uintptr(unsafe.Pointer(&s.stripes[0]))
	b := uintptr(unsafe.Pointer(&s.stripes[1]))
	if b-a != stripeBytes {
		t.Fatalf("adjacent stripes %d bytes apart, want %d", b-a, stripeBytes)
	}
}

// TestStripeSpread checks that distinct goroutines do not all collapse
// onto one stripe. With GOMAXPROCS goroutines and stack-address hashing
// the distribution need not be uniform, only non-degenerate; this guards
// against a broken hash that maps everything to stripe 0.
func TestStripeSpread(t *testing.T) {
	// Works even on a single P: stripe choice hashes goroutine stack
	// addresses, which are distinct regardless of parallelism.
	s := NewStatsStripes(64)
	const goroutines = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Inc(EvAcquires)
		}()
	}
	wg.Wait()
	used := 0
	for i := range s.stripes {
		if s.stripes[i].c[EvAcquires].Load() != 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("%d goroutines hit only %d stripe(s): hash degenerate", goroutines, used)
	}
	if got := s.Read().Acquires; got != goroutines {
		t.Fatalf("sum %d want %d", got, goroutines)
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Acquires: 10, Parks: 7, Cancels: 3, Abandons: 2, FastPath: 6, SlowPath: 4}
	b := Snapshot{Acquires: 4, Parks: 2, Cancels: 1, Abandons: 5, FastPath: 1, SlowPath: 1}
	d := a.Sub(b)
	if d.Acquires != 6 || d.Parks != 5 || d.Cancels != 2 || d.FastPath != 5 || d.SlowPath != 3 {
		t.Fatalf("Sub = %+v", d)
	}
	// Saturating, never wrapping: a field that went "backwards" reads 0.
	if d.Abandons != 0 {
		t.Fatalf("Sub saturated Abandons = %d want 0", d.Abandons)
	}
	if z := a.Sub(a); z != (Snapshot{}) {
		t.Fatalf("x.Sub(x) = %+v want zero", z)
	}
	// Sub inverts Add for monotonic pairs.
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("Add then Sub = %+v want %+v", got, a)
	}
}

// TestEventEnumerationClosed walks Snapshot by reflection (here only) so
// a field added without its line in events fails: every field is a
// uint64 that Each reports exactly once under a name of its own, Set
// inverts Each, the enumeration's order is the Event order Read sums in,
// and Add/Sub reach every field.
func TestEventEnumerationClosed(t *testing.T) {
	var a, b Snapshot
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	if va.NumField() != int(numEvents) {
		t.Fatalf("Snapshot has %d fields, Event has %d values", va.NumField(), numEvents)
	}
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Snapshot.%s is not a uint64: the enumeration addresses fields as uint64s", va.Type().Field(i).Name)
		}
		va.Field(i).SetUint(uint64(100 + i))
		vb.Field(i).SetUint(uint64(1000 + 7*i))
	}

	seen := make(map[string]uint64)
	var parsed Snapshot
	a.Each(func(name string, v uint64) {
		if _, dup := seen[name]; dup {
			t.Errorf("Each yields %q twice", name)
		}
		seen[name] = v
		if !parsed.Set(name, v) {
			t.Errorf("Set does not know %q", name)
		}
	})
	if len(seen) != va.NumField() || parsed != a {
		t.Fatalf("Each/Set do not cover Snapshot: %d names, round trip %+v, want %+v", len(seen), parsed, a)
	}
	if parsed.Set("no_such_event", 1) {
		t.Fatal("Set accepted an unknown name")
	}

	s := NewStatsStripes(2)
	for e := Event(0); e < numEvents; e++ {
		for n := Event(0); n <= e; n++ {
			s.Inc(e)
		}
	}
	next := uint64(1)
	s.Read().Each(func(name string, v uint64) {
		if v != next {
			t.Errorf("event %d reads back as %q = %d", next-1, name, v)
		}
		next++
	})

	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("Add then Sub = %+v, want %+v", got, a)
	}
	if got := a.Sub(b); got != (Snapshot{}) {
		t.Fatalf("Sub did not saturate every field: %+v", got)
	}
}
