package skiplist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestPutGetDelete(t *testing.T) {
	l := New(1)
	for i := uint64(1); i <= 200; i++ {
		l.Put(i*3, i)
	}
	if l.Len() != 200 {
		t.Fatalf("Len=%d", l.Len())
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := l.Get(i * 3)
		if !ok || v != i {
			t.Fatalf("Get(%d)=(%d,%v)", i*3, v, ok)
		}
	}
	if _, ok := l.Get(4); ok {
		t.Fatal("phantom key")
	}
	if !l.Delete(6) || l.Delete(6) {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := l.Get(6); ok {
		t.Fatal("deleted key still present")
	}
}

func TestMin(t *testing.T) {
	l := New(3)
	if _, ok := l.Min(); ok {
		t.Fatal("Min on empty list")
	}
	l.Put(50, 1)
	l.Put(10, 1)
	l.Put(90, 1)
	if k, ok := l.Min(); !ok || k != 10 {
		t.Fatalf("Min=%d,%v", k, ok)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		l := New(seed ^ 0xabcd)
		model := map[uint64]uint64{}
		for op := 0; op < 500; op++ {
			k := uint64(rng.Intn(200)) + 1
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Next()
				l.Put(k, v)
				model[k] = v
			case 2:
				got := l.Delete(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
		}
		if !l.CheckInvariants() || l.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := l.Get(k)
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

func TestOrderedOps(t *testing.T) {
	l := New(7)
	rng := rand.New(rand.NewSource(1))
	present := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			_, had := present[k]
			if fresh := l.Put(k, v); fresh == had {
				t.Fatalf("Put(%d) fresh=%v, had=%v", k, fresh, had)
			}
			present[k] = v
		case 2:
			_, had := present[k]
			if got := l.Delete(k); got != had {
				t.Fatalf("Delete(%d)=%v, had=%v", k, got, had)
			}
			delete(present, k)
		}
	}
	if l.Len() != len(present) {
		t.Fatalf("Len=%d want %d", l.Len(), len(present))
	}
	if !l.CheckInvariants() {
		t.Fatal("invariants violated")
	}
	// Scan yields ascending keys with the model's values.
	var last uint64
	first := true
	n := 0
	l.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= last {
			t.Fatalf("Scan not ascending: %d after %d", k, last)
		}
		if present[k] != v {
			t.Fatalf("Scan yielded %d=%d, want %d", k, v, present[k])
		}
		last, first = k, false
		n++
		return true
	})
	if n != len(present) {
		t.Fatalf("Scan yielded %d pairs want %d", n, len(present))
	}
	// Min agrees with the first scanned key.
	if k, ok := l.Min(); len(present) > 0 && (!ok || func() bool {
		seen := false
		l.Scan(0, ^uint64(0), func(sk, _ uint64) bool { seen = sk == k; return false })
		return !seen
	}()) {
		t.Fatalf("Min=%d,%v disagrees with Scan head", k, ok)
	}
}

// TestDeterministicTowers: two lists with the same seed and insert
// sequence are structurally identical — the property WithSeed exists for.
func TestDeterministicTowers(t *testing.T) {
	a, b := New(42), New(42)
	for i := uint64(0); i < 500; i++ {
		k := (i * 2654435761) % 1000
		a.Put(k, i)
		b.Put(k, i)
	}
	if a.height != b.height {
		t.Fatalf("heights diverge: %d vs %d", a.height, b.height)
	}
	for lvl := 0; lvl < a.height; lvl++ {
		x, y := a.head.next[lvl], b.head.next[lvl]
		for x != nil && y != nil {
			if x.key != y.key {
				t.Fatalf("level %d diverges: %d vs %d", lvl, x.key, y.key)
			}
			x, y = x.next[lvl], y.next[lvl]
		}
		if x != nil || y != nil {
			t.Fatalf("level %d lengths diverge", lvl)
		}
	}
}

func TestScanBounds(t *testing.T) {
	l := New(1)
	for _, k := range []uint64{0, 5, 10, 15, ^uint64(0)} {
		l.Put(k, k)
	}
	collect := func(lo, hi uint64) []uint64 {
		var out []uint64
		l.Scan(lo, hi, func(k, _ uint64) bool { out = append(out, k); return true })
		return out
	}
	for _, tc := range []struct {
		lo, hi uint64
		want   []uint64
	}{
		{5, 10, []uint64{5, 10}},               // inclusive both ends
		{6, 9, nil},                            // empty interior
		{0, 0, []uint64{0}},                    // key 0 reachable
		{16, ^uint64(0), []uint64{^uint64(0)}}, // inclusive max key
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
}

func TestTouchReportsPath(t *testing.T) {
	l := New(5)
	next := uint64(0)
	l.NextAddr = func() uint64 { next += 64; return next }
	for i := uint64(1); i <= 1024; i++ {
		l.Put(i, i)
	}
	visits := 0
	l.Touch = func(uint64) { visits++ }
	l.Get(1000)
	if visits == 0 || visits > 64 {
		t.Fatalf("Get visited %d nodes; want a short skip path", visits)
	}
}

func TestHookedMatchesUnhooked(t *testing.T) {
	// The same op sequence through a bare list and one with the footprint
	// hooks installed (same seed, so the towers match): identical results
	// and invariants, every address the hook reports was issued by
	// NextAddr, and each point operation's reported nodes are a skip
	// path: strictly ascending keys below the target, then the first
	// node at or past it.
	bare, hooked := New(11), New(11)
	next := uint64(0)
	keyAt := map[uint64]uint64{} // filled when a fresh Put reports its new node
	hooked.NextAddr = func() uint64 { next += 128; return next }
	var path []uint64
	hooked.Touch = func(addr uint64) {
		if addr == 0 || addr > next || addr%128 != 0 {
			t.Fatalf("hook reported %#x, which NextAddr never issued", addr)
		}
		path = append(path, addr)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		key := uint64(rng.Intn(1000))
		path = path[:0]
		fresh := false
		switch rng.Intn(4) {
		case 0, 1:
			val := rng.Uint64()
			a, b := bare.Put(key, val), hooked.Put(key, val)
			if a != b {
				t.Fatalf("op %d: Put(%d) fresh %v bare, %v hooked", i, key, a, b)
			}
			if fresh = b; fresh {
				keyAt[path[len(path)-1]] = key
				path = path[:len(path)-1]
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
		}
		for j, addr := range path {
			k := keyAt[addr]
			if j > 0 && k <= keyAt[path[j-1]] {
				t.Fatalf("op %d on key %d: step %d visits key %d after %d", i, key, j, k, keyAt[path[j-1]])
			}
			if last := j == len(path)-1; (k >= key) && !last {
				t.Fatalf("op %d on key %d: step %d of %d already at key %d", i, key, j, len(path), k)
			}
		}
		if bare.Len() != hooked.Len() {
			t.Fatalf("op %d: Len %d bare, %d hooked", i, bare.Len(), hooked.Len())
		}
	}
	if !bare.CheckInvariants() || !hooked.CheckInvariants() {
		t.Fatal("invariants violated")
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
	am, aok := bare.Min()
	path = path[:0]
	bm, bok := hooked.Min()
	if am != bm || aok != bok || (bok && (len(path) != 1 || keyAt[path[0]] != bm)) {
		t.Fatalf("Min=%d,%v bare, %d,%v hooked (visits %v)", am, aok, bm, bok, path)
	}
}
