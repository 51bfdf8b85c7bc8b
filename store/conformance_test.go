package store

import (
	"math/rand"
	"sort"
	"testing"
)

// invariantChecked is satisfied by backends that can self-verify their
// structural invariants (tree balance, tower subsequences, size counts).
type invariantChecked interface {
	CheckInvariants() bool
}

// conformanceKey draws keys from a mix of a small hot domain (so
// operations actually collide), a wide domain (so tree/tower shapes get
// exercised), and the domain extremes (key 0 is the hash table's
// out-of-band case; ^uint64(0) probes inclusive-bound handling).
func conformanceKey(rng *rand.Rand) uint64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return ^uint64(0) - uint64(rng.Intn(4))
	case 2, 3, 4:
		return rng.Uint64()
	default:
		return uint64(rng.Intn(512))
	}
}

// TestConformance runs every registered backend against a
// map[uint64]uint64 model under a randomized operation sequence: the
// differential half checks each backend agrees with the model op by op,
// and CheckInvariants (where available) verifies the structure itself.
// One suite, every backend — a new Register'd backend is conformance
// tested by existing.
func TestConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b := MustNew(name, WithSeed(7), WithCapacity(64))
			ordered, _ := b.(Ordered)
			checked, _ := b.(invariantChecked)
			optimistic, _ := b.(OptimisticReader)
			model := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(42))

			for i := 0; i < 30000; i++ {
				key := conformanceKey(rng)
				switch rng.Intn(12) {
				case 0, 1, 2, 3: // Put
					val := rng.Uint64()
					_, had := model[key]
					if fresh := b.Put(key, val); fresh == had {
						t.Fatalf("op %d: Put(%d) fresh=%v but model had=%v", i, key, fresh, had)
					}
					model[key] = val
				case 4, 5, 6: // Get
					wantV, want := model[key]
					if v, ok := b.Get(key); ok != want || (ok && v != wantV) {
						t.Fatalf("op %d: Get(%d)=%d,%v want %d,%v", i, key, v, ok, wantV, want)
					}
					// With no concurrent mutator, the weak read must be
					// exact: staleness and tearing are only permitted when
					// a writer overlaps.
					if optimistic != nil {
						if v, ok := optimistic.GetOptimistic(key); ok != want || (ok && v != wantV) {
							t.Fatalf("op %d: GetOptimistic(%d)=%d,%v want %d,%v", i, key, v, ok, wantV, want)
						}
					}
				case 7, 8: // Delete
					_, had := model[key]
					if present := b.Delete(key); present != had {
						t.Fatalf("op %d: Delete(%d)=%v but model had=%v", i, key, present, had)
					}
					delete(model, key)
				case 9: // Len + Range (full differential sweep)
					if b.Len() != len(model) {
						t.Fatalf("op %d: Len=%d model=%d", i, b.Len(), len(model))
					}
					if rng.Intn(50) != 0 {
						continue // full sweeps are O(n); sample them
					}
					seen := make(map[uint64]uint64, len(model))
					b.Range(func(k, v uint64) bool {
						if _, dup := seen[k]; dup {
							t.Fatalf("op %d: Range yielded key %d twice", i, k)
						}
						seen[k] = v
						return true
					})
					if len(seen) != len(model) {
						t.Fatalf("op %d: Range yielded %d pairs, model has %d", i, len(seen), len(model))
					}
					for k, v := range model {
						if seen[k] != v {
							t.Fatalf("op %d: Range yielded %d=%d, model %d", i, k, seen[k], v)
						}
					}
				case 10: // ordered reads
					if ordered == nil {
						continue
					}
					// Scan's first pair over the full domain against the
					// model's minimum.
					var wantMin uint64
					wantOK := false
					for k := range model {
						if !wantOK || k < wantMin {
							wantMin, wantOK = k, true
						}
					}
					var k uint64
					ok := false
					ordered.Scan(0, ^uint64(0), func(sk, _ uint64) bool {
						k, ok = sk, true
						return false
					})
					if ok != wantOK || (ok && k != wantMin) {
						t.Fatalf("op %d: Scan's first key=%d,%v want %d,%v", i, k, ok, wantMin, wantOK)
					}
					// Scan over a random inclusive range (occasionally the
					// full domain) against the model's sorted keys.
					lo, hi := rng.Uint64(), rng.Uint64()
					if lo > hi {
						lo, hi = hi, lo
					}
					if rng.Intn(4) == 0 {
						lo, hi = 0, ^uint64(0)
					}
					var want []uint64
					for k := range model {
						if lo <= k && k <= hi {
							want = append(want, k)
						}
					}
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					var got []uint64
					ordered.Scan(lo, hi, func(k, v uint64) bool {
						if v != model[k] {
							t.Fatalf("op %d: Scan yielded %d=%d, model %d", i, k, v, model[k])
						}
						got = append(got, k)
						return true
					})
					if len(got) != len(want) {
						t.Fatalf("op %d: Scan[%d,%d] yielded %d keys, model %d", i, lo, hi, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("op %d: Scan order diverges at %d: got %d want %d", i, j, got[j], want[j])
						}
					}
				case 11: // Range/Scan early stop must actually stop
					if b.Len() == 0 {
						continue
					}
					n := 0
					b.Range(func(_, _ uint64) bool { n++; return n < 3 })
					if max := 3; n > max {
						t.Fatalf("op %d: Range visited %d pairs after early stop", i, n)
					}
					if ordered != nil {
						n = 0
						ordered.Scan(0, ^uint64(0), func(_, _ uint64) bool { n++; return false })
						if n > 1 {
							t.Fatalf("op %d: Scan visited %d pairs after immediate stop", i, n)
						}
					}
				}
				if checked != nil && i%1024 == 0 {
					if !checked.CheckInvariants() {
						t.Fatalf("op %d: CheckInvariants failed", i)
					}
				}
			}
			if checked != nil && !checked.CheckInvariants() {
				t.Fatal("final CheckInvariants failed")
			}
			// Final full differential: the backend and the model hold the
			// same map.
			if b.Len() != len(model) {
				t.Fatalf("final Len=%d model=%d", b.Len(), len(model))
			}
			b.Range(func(k, v uint64) bool {
				if mv, ok := model[k]; !ok || mv != v {
					t.Fatalf("final state diverges at key %d: backend %d, model %d,%v", k, v, mv, ok)
				}
				return true
			})
		})
	}
}
