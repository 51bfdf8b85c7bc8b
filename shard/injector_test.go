package shard

import (
	"context"
	"sync/atomic"
	"testing"
)

// countingInjector records InCS calls per stripe.
type countingInjector struct {
	calls []atomic.Uint64
}

func (c *countingInjector) InCS(stripe int) { c.calls[stripe].Add(1) }

func (c *countingInjector) total() (n uint64) {
	for i := range c.calls {
		n += c.calls[i].Load()
	}
	return n
}

// TestInjectorHook: an installed injector's InCS runs once per point
// operation — plain and context forms — with the owning stripe's index;
// removing it stops the calls; monitoring paths never inject. The Gets
// take the locked path; a lock-free Get has no critical section to
// inject into.
func TestInjectorHook(t *testing.T) {
	m := MustNew(Config{Stripes: 4, ReadPath: "locked"})
	inj := &countingInjector{calls: make([]atomic.Uint64, 4)}
	m.SetInjector(inj)

	key := uint64(99)
	idx := m.StripeFor(key)
	m.Put(key, 1)
	m.Get(key)
	m.Delete(key)
	ctx := context.Background()
	if _, err := m.PutContext(ctx, key, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.GetContext(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteContext(ctx, key); err != nil {
		t.Fatal(err)
	}
	if got := inj.calls[idx].Load(); got != 6 {
		t.Fatalf("stripe %d InCS calls = %d want 6", idx, got)
	}
	if got := inj.total(); got != 6 {
		t.Fatalf("total InCS calls = %d want 6 (hook fired on a wrong stripe)", got)
	}

	// Monitoring paths hold stripe locks but are not point operations.
	m.Len()
	m.Snapshot()
	m.Range(func(k, v uint64) bool { return true })
	if got := inj.total(); got != 6 {
		t.Fatalf("monitoring path injected: total = %d want 6", got)
	}

	m.SetInjector(nil)
	m.Put(key, 2)
	if got := inj.total(); got != 6 {
		t.Fatalf("removed injector still called: %d", got)
	}

	// On the default read path a hashmap Get is served lock-free, so it
	// never calls InCS; the write beside it does.
	def := MustNew(Config{Stripes: 4})
	inj = &countingInjector{calls: make([]atomic.Uint64, 4)}
	def.SetInjector(inj)
	def.Put(key, 1)
	def.Get(key)
	if _, _, err := def.GetContext(ctx, key); err != nil {
		t.Fatal(err)
	}
	if got := inj.total(); got != 1 {
		t.Fatalf("default read path: InCS calls = %d, want 1 (the Put only)", got)
	}
}

// TestDeadlineAccounting: attempts count deadline-bounded point context
// ops only (ctx.Done() != nil); misses count the subset that expired;
// plain ops and value-only contexts are not budgeted.
func TestDeadlineAccounting(t *testing.T) {
	m := MustNew(Config{Stripes: 2})
	key := uint64(7)
	idx := m.StripeFor(key)

	// Plain ops and Background-derived contexts (Done() == nil): not
	// budgeted.
	m.Put(key, 1)
	bg := WithClientID(context.Background(), 3)
	if _, err := m.PutContext(bg, key, 1); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.DeadlineAttempts != 0 || s.DeadlineMisses != 0 {
		t.Fatalf("unbudgeted traffic counted: attempts=%d misses=%d", s.DeadlineAttempts, s.DeadlineMisses)
	}

	// A cancellable context is budgeted; a successful op is no miss.
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := m.PutContext(ctx, key, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.GetContext(ctx, key); err != nil {
		t.Fatal(err)
	}
	s = m.Snapshot()
	st := s.Stripes[idx]
	if st.DeadlineAttempts != 2 || st.DeadlineMisses != 0 {
		t.Fatalf("stripe counters = %d/%d want 2/0", st.DeadlineMisses, st.DeadlineAttempts)
	}

	// An expired context misses.
	cancel()
	if _, err := m.PutContext(ctx, key, 3); err == nil {
		t.Fatal("canceled context op succeeded")
	}
	if _, err := m.DeleteContext(ctx, key); err == nil {
		t.Fatal("canceled context op succeeded")
	}
	s = m.Snapshot()
	st = s.Stripes[idx]
	if st.DeadlineAttempts != 4 || st.DeadlineMisses != 2 {
		t.Fatalf("stripe counters = %d/%d want 2/4", st.DeadlineMisses, st.DeadlineAttempts)
	}
	if s.DeadlineAttempts != 4 || s.DeadlineMisses != 2 {
		t.Fatalf("rollup = %d/%d want 2/4", s.DeadlineMisses, s.DeadlineAttempts)
	}
	other := s.Stripes[1-idx]
	if other.DeadlineAttempts != 0 {
		t.Fatalf("idle stripe counted %d attempts", other.DeadlineAttempts)
	}

}

// TestDeltaDeadlineSaturation: Sub saturates the deadline deltas at zero
// (mismatched snapshot pairing must not wrap).
func TestDeltaDeadlineSaturation(t *testing.T) {
	deadlines := func(attempts, misses uint64) Counters {
		return Counters{DeadlineAttempts: attempts, DeadlineMisses: misses}
	}
	cur := deadlines(15, 7)
	d := cur.Sub(deadlines(100, 50)) // "later" than cur: wrong pairing
	if d.DeadlineAttempts != 0 || d.DeadlineMisses != 0 {
		t.Fatalf("rollup delta wrapped: %d/%d", d.DeadlineMisses, d.DeadlineAttempts)
	}

	// The well-ordered direction subtracts exactly.
	d = cur.Sub(deadlines(4, 1))
	if d.DeadlineAttempts != 11 || d.DeadlineMisses != 6 {
		t.Fatalf("rollup delta = %d/%d want 6/11", d.DeadlineMisses, d.DeadlineAttempts)
	}
}
