package shard

import (
	"context"
	"testing"
	"time"
)

// scriptedPolicy moves stripe target to another backend once a given
// acquisition delta is seen, then goes quiet — a minimal stateful policy
// for exercising the controller loop end to end.
type scriptedPolicy struct {
	target  int
	to      string
	swapped bool
}

func (p *scriptedPolicy) Decide(prev, cur StripeSnapshot) (string, bool) {
	if cur.Index != p.target || p.swapped || cur.Lock.Acquires <= prev.Lock.Acquires {
		return "", false
	}
	p.swapped = true
	return p.to, true
}

// backendOf reads stripe i's live backend spec.
func backendOf(m *Map, i int) string { return m.Snapshot().Stripes[i].BackendSpec }

func TestControllerAppliesDecisions(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas"})
	pol := &scriptedPolicy{target: 1, to: "skiplist"}
	c := StartController(context.Background(), m, pol, 2*time.Millisecond)
	defer c.Stop()

	// Drive traffic at stripe 1 until the controller swaps it.
	var key uint64
	for k := uint64(0); k < 1024; k++ {
		if m.StripeFor(k) == 1 {
			key = k
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Swaps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("controller never applied the swap")
		}
		m.Put(key, 1)
	}
	c.Stop()
	if bs := backendOf(m, 1); bs != "skiplist" {
		t.Fatalf("stripe 1 backend = %q want skiplist", bs)
	}
	if bs := backendOf(m, 0); bs != "hashmap" {
		t.Fatalf("stripe 0 disturbed: %q", bs)
	}
	if c.Swaps() != 1 {
		t.Fatalf("Swaps=%d want 1", c.Swaps())
	}
	if got := m.Snapshot().Swaps; got != 1 {
		t.Fatalf("map Swaps=%d want 1", got)
	}
	// The controller computed per-interval deltas along the way.
	d := c.LastDelta()
	if len(d.Stripes) != m.Stripes() {
		t.Fatalf("LastDelta has %d stripes want %d", len(d.Stripes), m.Stripes())
	}
}

// rejectingPolicy always asks for an unbuildable spec: the controller
// must count the rejection and leave the stripe untouched.
type rejectingPolicy struct{}

func (rejectingPolicy) Decide(prev, cur StripeSnapshot) (string, bool) {
	return "no-such-backend", true
}

func TestControllerRejectsBadSpecs(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas"})
	c := StartController(context.Background(), m, rejectingPolicy{}, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for c.Rejected() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("controller never saw a rejection")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if c.Swaps() != 0 {
		t.Fatalf("Swaps=%d want 0", c.Swaps())
	}
	if bs := backendOf(m, 0); bs != "hashmap" {
		t.Fatalf("rejected policy disturbed the backend: %q", bs)
	}
}

func TestControllerStopIdempotent(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "tas"})
	ctx, cancel := context.WithCancel(context.Background())
	c := StartController(ctx, m, rejectingPolicy{}, time.Hour) // never ticks
	cancel()                                                   // ctx cancellation alone stops the loop
	c.Stop()
	c.Stop() // idempotent
}

func TestSnapshotSub(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas", BackendSpec: "skiplist", HistoryCap: 128})
	ctx := WithClientID(context.Background(), 1)
	prev := m.Snapshot()
	for k := uint64(0); k < 64; k++ {
		if _, err := m.PutContext(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	m.Scan(0, ^uint64(0), func(_, _ uint64) bool { return true })
	if err := m.Reconfigure(0, "rbtree"); err != nil {
		t.Fatal(err)
	}
	cur := m.Snapshot()
	d := cur.Sub(prev)
	if d.Len != 64 {
		t.Fatalf("delta Len=%d want 64", d.Len)
	}
	if d.Lock.Acquires == 0 {
		t.Fatal("delta Acquires=0 after 64 puts")
	}
	if d.Scans != 1 {
		t.Fatalf("delta Scans=%d want 1 (map-level attempt count, not a per-stripe sum)", d.Scans)
	}
	for _, sd := range d.Stripes {
		if sd.Scans != 1 {
			t.Fatalf("stripe %d delta Scans=%d want 1", sd.Index, sd.Scans)
		}
	}
	if d.Swaps != 1 {
		t.Fatalf("delta Swaps=%d want 1", d.Swaps)
	}
	admissions := 0
	for _, sd := range d.Stripes {
		admissions += sd.Admissions
		if sd.Len < 0 {
			t.Fatalf("stripe %d delta Len=%d", sd.Index, sd.Len)
		}
	}
	if admissions != 64 {
		t.Fatalf("delta admissions=%d want 64", admissions)
	}
	// Self-subtraction is zero; zero prev is the snapshot itself.
	z := cur.Sub(cur)
	if z.Len != 0 || z.Swaps != 0 || z.Scans != 0 || z.Lock.Acquires != 0 {
		t.Fatalf("x.Sub(x) = %+v", z)
	}
	full := cur.Sub(Snapshot{})
	if full.Len != cur.Len || full.Lock.Acquires != cur.Lock.Acquires {
		t.Fatalf("x.Sub(zero) lost data: %+v", full)
	}
}
