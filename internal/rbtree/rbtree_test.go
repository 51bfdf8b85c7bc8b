package rbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestPutGet(t *testing.T) {
	tr := New()
	for i := uint64(1); i <= 100; i++ {
		tr.Put(i, i*10)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := tr.Get(i)
		if !ok || v != i*10 {
			t.Fatalf("Get(%d)=(%d,%v)", i, v, ok)
		}
	}
	if _, ok := tr.Get(1000); ok {
		t.Fatal("phantom key")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := uint64(1); i <= 50; i++ {
		tr.Put(i, i)
	}
	for i := uint64(1); i <= 50; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Delete(1) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 25 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := uint64(1); i <= 50; i++ {
		_, ok := tr.Get(i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%d)=%v want %v", i, ok, want)
		}
	}
	if !tr.CheckInvariants() {
		t.Fatal("invariants violated after deletes")
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		tr := New()
		model := map[uint64]uint64{}
		for op := 0; op < 400; op++ {
			k := uint64(rng.Intn(100)) + 1
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Next()
				tr.Put(k, v)
				model[k] = v
			case 2:
				got := tr.Delete(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
			if !tr.CheckInvariants() {
				return false
			}
			if tr.Len() != len(model) {
				return false
			}
		}
		for k, v := range model {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLogarithmicDepth(t *testing.T) {
	tr := New()
	tr.Touch = func(uint64) {}
	for i := uint64(1); i <= 4096; i++ {
		tr.Put(i, i)
	}
	depth := 0
	tr.Touch = func(uint64) { depth++ }
	tr.Get(4096)
	// 2*log2(4097) ≈ 24 is the LLRB bound.
	if depth > 26 {
		t.Fatalf("search path %d nodes for 4096 keys; tree unbalanced", depth)
	}
}

func TestOrderedOps(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	present := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			_, had := present[k]
			if fresh := tr.Put(k, v); fresh == had {
				t.Fatalf("Put(%d) fresh=%v, had=%v", k, fresh, had)
			}
			present[k] = v
		case 2:
			_, had := present[k]
			if got := tr.Delete(k); got != had {
				t.Fatalf("Delete(%d)=%v, had=%v", k, got, had)
			}
			delete(present, k)
		}
		if i%512 == 0 && !tr.CheckInvariants() {
			t.Fatalf("invariants violated at op %d", i)
		}
	}
	if tr.Len() != len(present) {
		t.Fatalf("Len=%d want %d", tr.Len(), len(present))
	}
	if !tr.CheckInvariants() {
		t.Fatal("final invariants violated")
	}
	var last uint64
	first := true
	n := 0
	tr.Range(func(k, v uint64) bool {
		if !first && k <= last {
			t.Fatalf("Range not ascending: %d after %d", k, last)
		}
		if present[k] != v {
			t.Fatalf("Range yielded %d=%d, want %d", k, v, present[k])
		}
		last, first = k, false
		n++
		return true
	})
	if n != len(present) {
		t.Fatalf("Range yielded %d pairs want %d", n, len(present))
	}
}

func TestScanBounds(t *testing.T) {
	tr := New()
	for _, k := range []uint64{0, 5, 10, 15, ^uint64(0)} {
		tr.Put(k, k*2)
	}
	collect := func(lo, hi uint64) []uint64 {
		var out []uint64
		tr.Scan(lo, hi, func(k, _ uint64) bool { out = append(out, k); return true })
		return out
	}
	for _, tc := range []struct {
		lo, hi uint64
		want   []uint64
	}{
		{5, 10, []uint64{5, 10}},
		{6, 9, nil},
		{0, 0, []uint64{0}},
		{16, ^uint64(0), []uint64{^uint64(0)}},
		{0, ^uint64(0), []uint64{0, 5, 10, 15, ^uint64(0)}},
	} {
		got := collect(tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Fatalf("Scan[%d,%d] = %v want %v", tc.lo, tc.hi, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("Scan[%d,%d] = %v want %v", tc.lo, tc.hi, got, tc.want)
			}
		}
	}
	// Early stop, at the minimum.
	n, first := 0, ^uint64(0)
	tr.Scan(0, ^uint64(0), func(k, _ uint64) bool { n, first = n+1, k; return false })
	if n != 1 || first != 0 {
		t.Fatalf("Scan visited %d pairs from key %d after immediate stop, want 1 from 0", n, first)
	}
}

func TestHookedMatchesUnhooked(t *testing.T) {
	// The same op sequence through a bare tree and one with the footprint
	// hooks installed: identical results and invariants, every address
	// the hook reports was issued by NextAddr, and a Get's reported
	// nodes are exactly a root-to-key BST descent.
	bare, hooked := New(), New()
	next := uint64(0x1000)
	issued := map[uint64]bool{}
	hooked.NextAddr = func() uint64 { next += 64; issued[next] = true; return next }
	var path []uint64
	hooked.Touch = func(addr uint64) {
		if !issued[addr] {
			t.Fatalf("hook reported %#x, which NextAddr never issued", addr)
		}
		path = append(path, addr)
	}
	// Addresses travel with keys (delete moves key, value and address
	// together), so a Put's last reported node names its key for good.
	keyAt := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		key := uint64(rng.Intn(1000))
		path = path[:0]
		switch rng.Intn(4) {
		case 0, 1:
			val := rng.Uint64()
			a, b := bare.Put(key, val), hooked.Put(key, val)
			if a != b {
				t.Fatalf("op %d: Put(%d) fresh %v bare, %v hooked", i, key, a, b)
			}
			if b {
				keyAt[path[len(path)-1]] = key
			}
		case 2:
			if a, b := bare.Delete(key), hooked.Delete(key); a != b {
				t.Fatalf("op %d: Delete(%d) %v bare, %v hooked", i, key, a, b)
			}
		case 3:
			av, aok := bare.Get(key)
			bv, bok := hooked.Get(key)
			if av != bv || aok != bok {
				t.Fatalf("op %d: Get(%d)=%d,%v bare, %d,%v hooked", i, key, av, aok, bv, bok)
			}
			lo, hi := uint64(0), ^uint64(0)
			for j, addr := range path {
				k := keyAt[addr]
				if k < lo || k > hi || (k == key) != (bok && j == len(path)-1) {
					t.Fatalf("op %d: Get(%d) step %d visits key %d outside the descent [%d,%d]", i, key, j, k, lo, hi)
				}
				if key < k {
					hi = k - 1
				} else {
					lo = k + 1
				}
			}
		}
		if len(path) == 0 && hooked.Len() > 0 {
			t.Fatalf("op %d on key %d reported no node visit", i, key)
		}
		if bare.Len() != hooked.Len() {
			t.Fatalf("op %d: Len %d bare, %d hooked", i, bare.Len(), hooked.Len())
		}
		if i%256 == 0 && (!bare.CheckInvariants() || !hooked.CheckInvariants()) {
			t.Fatalf("invariants violated at op %d", i)
		}
	}
	if !bare.CheckInvariants() || !hooked.CheckInvariants() {
		t.Fatal("final invariants violated")
	}
	var want []uint64
	bare.Scan(100, 300, func(k, v uint64) bool { want = append(want, k, v); return true })
	path = path[:0]
	var got []uint64
	hooked.Scan(100, 300, func(k, v uint64) bool { got = append(got, k, v); return true })
	if len(got) != len(want) {
		t.Fatalf("Scan yields %d values hooked, %d bare", len(got), len(want))
	}
	visited := map[uint64]bool{}
	for _, addr := range path {
		visited[keyAt[addr]] = true
	}
	for j := 0; j < len(got); j += 2 {
		if got[j] != want[j] || got[j+1] != want[j+1] {
			t.Fatalf("Scan pair %d: %d=%d hooked, %d=%d bare", j/2, got[j], got[j+1], want[j], want[j+1])
		}
		if !visited[got[j]] {
			t.Fatalf("Scan yielded key %d without reporting its node", got[j])
		}
	}
}
