package shard

import (
	"context"
	"testing"
	"time"
)

// TestClassAccounting pins the per-class deadline counters: budgeted
// operations land under their context's class, unclassified traffic
// lands in class 0, and the pooled totals are the class sums — the
// contract that keeps pre-class callers unchanged.
func TestClassAccounting(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "tas"})
	m.Put(1, 1)

	issue := func(ctx context.Context, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := m.GetContext(ctx, 1); err != nil {
				t.Fatalf("GetContext: %v", err)
			}
		}
	}

	// Plain (uncancellable) context ops are not budgeted at all.
	issue(context.Background(), 5)
	// Budgeted, no class: class 0.
	ctx0, cancel0 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel0()
	issue(ctx0, 3)
	// Budgeted, class 2.
	ctx2, cancel2 := context.WithTimeout(WithClass(context.Background(), 2), time.Minute)
	defer cancel2()
	issue(ctx2, 4)
	// Out-of-range classes clamp to 0.
	ctxHi, cancelHi := context.WithTimeout(WithClass(context.Background(), NumClasses+7), time.Minute)
	defer cancelHi()
	issue(ctxHi, 2)

	// Budgeted because it can be cancelled, though it has no deadline.
	ctx1, cancel1 := context.WithCancel(WithClass(context.Background(), 1))
	defer cancel1()
	issue(ctx1, 1)
	// Budgeted by its deadline alone: the stripe is free, so nobody has
	// to wait, and nobody may ask this context for its channel.
	ctx3 := &deadlineOnlyCtx{Context: WithClass(context.Background(), 3), t: t}
	issue(ctx3, 1)
	if _, err := m.PutContext(ctx3, 2, 2); err != nil {
		t.Fatalf("PutContext: %v", err)
	}

	snap := m.Snapshot()
	s := snap.Stripes[0]
	wantA := [NumClasses]uint64{0: 5, 1: 1, 2: 4, 3: 2}
	if s.ClassDeadlineAttempts != wantA {
		t.Fatalf("ClassDeadlineAttempts = %v, want %v", s.ClassDeadlineAttempts, wantA)
	}
	if s.DeadlineAttempts != 12 || snap.DeadlineAttempts != 12 {
		t.Fatalf("pooled attempts = %d/%d, want 12/12", s.DeadlineAttempts, snap.DeadlineAttempts)
	}
	if s.DeadlineMisses != 0 || s.ClassDeadlineMisses != ([NumClasses]uint64{}) {
		t.Fatalf("unexpected misses: %d %v", s.DeadlineMisses, s.ClassDeadlineMisses)
	}
}

// deadlineOnlyCtx carries a deadline an hour away and fails the test if
// asked for its Done channel: the shape of server's per-connection
// deadline context, for which that question arms a timer.
type deadlineOnlyCtx struct {
	context.Context
	t *testing.T
}

func (c *deadlineOnlyCtx) Deadline() (time.Time, bool) { return time.Now().Add(time.Hour), true }

func (c *deadlineOnlyCtx) Done() <-chan struct{} {
	c.t.Error("Done called on the uncontended path")
	return nil
}

// TestClassMisses drives an already-expired context through each class
// and checks the miss lands in the right bucket, with exactly one lock
// Cancels event per miss (the wire layer's reconciliation invariant).
// The Gets take the locked path: a lock-free hit serves even an expired
// context (TestOptimisticGetAccounting).
func TestClassMisses(t *testing.T) {
	m := MustNew(Config{Stripes: 1, LockSpec: "mcs-stp", ReadPath: "locked"})
	m.Put(1, 1)

	missed := 0
	for cls := 0; cls < NumClasses; cls++ {
		ctx, cancel := context.WithCancel(WithClass(context.Background(), cls))
		cancel() // expired before the stripe is reached
		for i := 0; i <= cls; i++ {
			if _, _, err := m.GetContext(ctx, 1); err == nil {
				t.Fatalf("class %d: expired context served", cls)
			}
			missed++
		}
	}

	snap := m.Snapshot()
	s := snap.Stripes[0]
	for cls := 0; cls < NumClasses; cls++ {
		want := uint64(cls + 1)
		if s.ClassDeadlineAttempts[cls] != want || s.ClassDeadlineMisses[cls] != want {
			t.Fatalf("class %d: attempts/misses = %d/%d, want %d/%d",
				cls, s.ClassDeadlineAttempts[cls], s.ClassDeadlineMisses[cls], want, want)
		}
	}
	if snap.DeadlineMisses != uint64(missed) {
		t.Fatalf("pooled misses = %d, want %d", snap.DeadlineMisses, missed)
	}
	if snap.Lock.Cancels != uint64(missed) {
		t.Fatalf("Cancels = %d, want exactly one per miss (%d)", snap.Lock.Cancels, missed)
	}
}

// TestClassDelta pins the per-class saturating subtraction in
// Counters.Sub.
func TestClassDelta(t *testing.T) {
	m := MustNew(Config{Stripes: 2, LockSpec: "tas"})
	m.Put(1, 1)
	ctx1, cancel1 := context.WithTimeout(WithClass(context.Background(), 1), time.Minute)
	defer cancel1()
	if _, _, err := m.GetContext(ctx1, 1); err != nil {
		t.Fatal(err)
	}
	prev := m.Snapshot()
	for i := 0; i < 3; i++ {
		if _, _, err := m.GetContext(ctx1, 1); err != nil {
			t.Fatal(err)
		}
	}
	d := m.Snapshot().Counters.Sub(prev.Counters)
	if d.ClassDeadlineAttempts[1] != 3 {
		t.Fatalf("delta class-1 attempts = %d, want 3", d.ClassDeadlineAttempts[1])
	}
	if d.DeadlineAttempts != 3 {
		t.Fatalf("delta pooled attempts = %d, want 3", d.DeadlineAttempts)
	}
	// Mispaired snapshots saturate instead of wrapping.
	wrapped := Counters{}.Sub(m.Snapshot().Counters)
	if wrapped.ClassDeadlineAttempts[1] != 0 {
		t.Fatalf("saturating sub wrapped: %v", wrapped.ClassDeadlineAttempts)
	}
}
