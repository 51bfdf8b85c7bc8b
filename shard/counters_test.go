package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fillLeaves sets every uint64 leaf under v (struct fields, array
// elements, recursively) to next(), and panics on a leaf of any other
// kind: Counters is uint64s all the way down.
func fillLeaves(v reflect.Value, next func() uint64) int {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(next())
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += fillLeaves(v.Field(i), next)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += fillLeaves(v.Index(i), next)
		}
		return n
	}
	panic(fmt.Sprintf("Counters has a %s leaf", v.Kind()))
}

// TestCountersEnumerationClosed walks Counters by reflection (here only)
// so a field added without its line in counterFields fails: Each reports
// every leaf exactly once under a (name, class) of its own, Add and Sub
// reach every leaf, Sub saturates, and Text/ParseCounters round-trip.
func TestCountersEnumerationClosed(t *testing.T) {
	var a, b Counters
	n := uint64(0)
	leaves := fillLeaves(reflect.ValueOf(&a).Elem(), func() uint64 { n++; return 100 + n })
	fillLeaves(reflect.ValueOf(&b).Elem(), func() uint64 { n += 7; return 1000 + n })

	keys := make(map[string]bool)
	values := make(map[uint64]bool)
	a.Each(func(name string, class int, v uint64) {
		key := fmt.Sprint(name, "/", class)
		if keys[key] || values[v] {
			t.Errorf("Each yields %s = %d twice", key, v)
		}
		keys[key], values[v] = true, true
		if class >= NumClasses || class < -1 {
			t.Errorf("%s: class out of range", key)
		}
	})
	if len(values) != leaves {
		t.Fatalf("Each yields %d counters, Counters has %d leaves", len(values), leaves)
	}
	for v := uint64(101); v <= 100+uint64(leaves); v++ {
		if !values[v] {
			t.Errorf("the leaf set to %d is not enumerated", v)
		}
	}

	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("Add then Sub = %+v\nwant %+v", got, a)
	}
	if got := a.Sub(b); got != (Counters{}) {
		t.Fatalf("Sub did not saturate every counter: %+v", got)
	}

	got, err := ParseCounters("server=shardd\nlock=mcscr-stp\n" + a.Text() + "deadline_misses[0]=9\nclass_deadline_misses=9\nlock_parks[1]=9\nbackend=hashmap\n")
	if err != nil || got != a {
		t.Fatalf("ParseCounters(Text) = %+v, %v\nwant %+v", got, err, a)
	}
	if _, err := ParseCounters("optimistic_hits=many\n"); err == nil {
		t.Fatal("ParseCounters accepted a counter that is not a number")
	}
	if _, err := ParseCounters("lock_culls=-1\n"); err == nil {
		t.Fatal("ParseCounters accepted a negative lock event")
	}
}

// TestSnapshotRollUp: the map-level Counters are the stripes' summed.
func TestSnapshotRollUp(t *testing.T) {
	m := MustNew(Config{Stripes: 4, LockSpec: "mcs-stp", BackendSpec: "skiplist", ReadPath: "optimistic"})
	ctx, cancel := context.WithTimeout(WithClass(context.Background(), 2), time.Minute)
	defer cancel()
	for k := uint64(0); k < 256; k++ {
		if _, err := m.PutContext(ctx, k, k); err != nil {
			t.Fatal(err)
		}
		m.Get(k)
	}

	snap := m.Snapshot()
	var sum Counters
	for _, st := range snap.Stripes {
		sum = sum.Add(st.Counters)
	}
	if sum != snap.Counters {
		t.Fatalf("roll-up = %+v\nstripes sum to %+v", snap.Counters, sum)
	}
	if snap.ClassDeadlineAttempts[2] != 256 || snap.DeadlineAttempts != 256 || snap.Lock.Acquires == 0 {
		t.Fatalf("roll-up lost traffic: %+v", snap.Counters)
	}
}

func TestSnapshotSub(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas", BackendSpec: "skiplist"})
	prev := m.Snapshot()
	for k := uint64(0); k < 64; k++ {
		m.Put(k, k)
	}
	cur := m.Snapshot().Counters
	d := cur.Sub(prev.Counters)
	if d.Lock.Acquires < 64 {
		t.Fatalf("delta Acquires=%d after 64 puts", d.Lock.Acquires)
	}
	// Self-subtraction is zero; zero prev is the counters themselves.
	if z := cur.Sub(cur); z != (Counters{}) {
		t.Fatalf("x.Sub(x) = %+v", z)
	}
	if full := cur.Sub(Counters{}); full != cur {
		t.Fatalf("x.Sub(zero) lost data: %+v", full)
	}
}
