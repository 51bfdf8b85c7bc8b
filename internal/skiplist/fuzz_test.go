package skiplist

import (
	"sort"
	"testing"
)

// fuzzKey spreads a byte over the key domain, order-preserving, with both
// ends of the domain reachable.
func fuzzKey(b byte) uint64 {
	if b == 255 {
		return ^uint64(0)
	}
	return uint64(b) << 40
}

// fuzzWidths are the node widths an input's first byte chooses from: the
// simulator's 1, the store's 64, 32, and 2 and 3, which split, shift and
// merge nodes within a few keys.
var fuzzWidths = [...]int{1, 2, 3, 32, 64}

// FuzzListAgainstModel takes the list's width from the first byte, then
// decodes two bytes per operation (opcode, key) and runs them against a
// map and a sorted key slice: every Put, Delete, Get, Min and bounded
// Scan must answer as the model does, and CheckInvariants — pair counts
// and order, tower structure and the arena audit — must hold every 64
// operations and at the end.
func FuzzListAgainstModel(f *testing.F) {
	var reinsert, boundary []byte
	// The same few keys deleted and put back: each reinsertion draws a
	// fresh height, so at width 1 nodes change size class and free lists
	// fill.
	for round := 0; round < 24; round++ {
		for k := byte(1); k <= 6; k++ {
			reinsert = append(reinsert, 0, k, 4, k, 0, k)
		}
	}
	// 120 keys pass the first chunk's 256 words; then nodes on both sides
	// of the boundary are freed and their words reused by other keys.
	for k := 0; k < 120; k++ {
		boundary = append(boundary, 0, byte(k))
	}
	for k := 0; k < 120; k += 3 {
		boundary = append(boundary, 4, byte(k))
	}
	for k := 130; k < 200; k++ {
		boundary = append(boundary, 0, byte(k), 7, byte(k-20))
	}
	ends := []byte{0, 0, 0, 255, 6, 0, 6, 255, 7, 0, 7, 250, 4, 0, 6, 0, 4, 255, 6, 255, 0, 255, 0, 0}
	for w := range fuzzWidths {
		for _, ops := range [][]byte{reinsert, boundary, ends} {
			f.Add(append([]byte{byte(w)}, ops...))
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ops := in[1:]
		l := New(uint64(len(ops)), fuzzWidths[int(in[0])%len(fuzzWidths)])
		model := map[uint64]uint64{}
		var keys []uint64 // the model's keys, ascending
		at := func(k uint64) int { return sort.Search(len(keys), func(i int) bool { return keys[i] >= k }) }
		for i := 0; i+1 < len(ops); i += 2 {
			k := fuzzKey(ops[i+1])
			_, had := model[k]
			switch op := ops[i] % 8; op {
			case 0, 1, 2, 3:
				if fresh := l.Put(k, uint64(i)); fresh == had {
					t.Fatalf("op %d: Put(%#x) fresh=%v, model had=%v", i/2, k, fresh, had)
				}
				if !had {
					j := at(k)
					keys = append(keys, 0)
					copy(keys[j+1:], keys[j:])
					keys[j] = k
				}
				model[k] = uint64(i)
			case 4, 5:
				if got := l.Delete(k); got != had {
					t.Fatalf("op %d: Delete(%#x)=%v, model had=%v", i/2, k, got, had)
				}
				if had {
					j := at(k)
					keys = append(keys[:j], keys[j+1:]...)
					delete(model, k)
				}
			case 6:
				if v, ok := l.Get(k); ok != had || v != model[k] {
					t.Fatalf("op %d: Get(%#x)=%d,%v, model %d,%v", i/2, k, v, ok, model[k], had)
				}
				if m, ok := scanMin(l); ok != (len(keys) > 0) || (ok && m != keys[0]) {
					t.Fatalf("op %d: Scan's first key=%#x,%v with %d model keys", i/2, m, ok, len(keys))
				}
			case 7:
				hi := k
				if b := ops[i+1]; b < 246 {
					hi = fuzzKey(b + 9)
				}
				j := at(k)
				l.Scan(k, hi, func(sk, sv uint64) bool {
					if j == len(keys) || sk != keys[j] || sk > hi || sv != model[sk] {
						t.Fatalf("op %d: Scan[%#x,%#x] yielded %#x=%d at model index %d", i/2, k, hi, sk, sv, j)
					}
					j++
					return true
				})
				if j < len(keys) && keys[j] <= hi {
					t.Fatalf("op %d: Scan[%#x,%#x] stopped before model key %#x", i/2, k, hi, keys[j])
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model %d", i/2, l.Len(), len(model))
			}
			if i/2%64 == 63 && !l.CheckInvariants() {
				t.Fatalf("op %d: CheckInvariants failed", i/2)
			}
		}
		if !l.CheckInvariants() {
			t.Fatal("final CheckInvariants failed")
		}
	})
}
