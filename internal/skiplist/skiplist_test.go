package skiplist

import (
	"fmt"
	"math/rand"
	"strings"
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
		x, y := a.link(head, lvl), b.link(head, lvl)
		for x != 0 && y != 0 {
			if a.key(x) != b.key(y) {
				t.Fatalf("level %d diverges: %d vs %d", lvl, a.key(x), b.key(y))
			}
			x, y = a.link(x, lvl), b.link(y, lvl)
		}
		if x != 0 || y != 0 {
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

// TestArenaLimit lowers the offset space to two chunks: the Put that
// needs a third panics with the list's size, instead of handing out an
// offset that wraps onto a live node, and leaves the list intact.
func TestArenaLimit(t *testing.T) {
	defer func(limit uint64) { arenaLimit = limit }(arenaLimit)
	arenaLimit = 2 << chunkShift
	l := New(1)
	var msg string
	func() {
		defer func() { msg, _ = recover().(string) }()
		for k := uint64(0); ; k++ {
			l.Put(k, k)
		}
	}()
	want := fmt.Sprintf("list of %d keys is full", l.Len())
	if l.Len() == 0 || !strings.Contains(msg, want) || !strings.Contains(msg, "2^32 words") {
		t.Fatalf("panic %q; want one containing %q and the capacity", msg, want)
	}
	if len(l.chunks) != 2 || !l.CheckInvariants() {
		t.Fatalf("list damaged by the refused Put: %d chunks", len(l.chunks))
	}
	if v, ok := l.Get(uint64(l.Len() - 1)); !ok || v != uint64(l.Len()-1) {
		t.Fatalf("last key before the limit reads %d,%v", v, ok)
	}
}

// TestChurnReusesFreedNodes: replacing random resident keys with new ones
// is served from the free lists. No chunk is added, and the high-water
// mark stays where the load phase put it but for the nodes by which a
// size class's population has exceeded its own earlier peak (heights are
// redrawn, so the mix of sizes wanders around its mean).
func TestChurnReusesFreedNodes(t *testing.T) {
	const keys, pairs = 1 << 14, 1 << 18
	l := New(9)
	rng := rand.New(rand.NewSource(3))
	resident := make([]uint64, keys)
	for i := range resident {
		resident[i] = rng.Uint64()
		l.Put(resident[i], 1)
	}
	loaded, reserved := l.arenaWords()
	for i := 0; i < pairs; i++ {
		j := rng.Intn(keys)
		if !l.Delete(resident[j]) {
			t.Fatalf("pair %d: resident key missing", i)
		}
		resident[j] = rng.Uint64()
		l.Put(resident[j], 2)
	}
	used, after := l.arenaWords()
	if after != reserved {
		t.Fatalf("churn grew the arena from %d to %d words", reserved, after)
	}
	if used > loaded+loaded/32 {
		t.Fatalf("high-water mark moved from %d to %d words over %d put/delete pairs", loaded, used, pairs)
	}
	if l.Len() != keys || !l.CheckInvariants() {
		t.Fatalf("Len=%d after churn, or invariants violated", l.Len())
	}
}

func TestFootprintPerKey(t *testing.T) {
	const keys = 1 << 16
	l := New(4)
	for k := uint64(0); k < keys; k++ {
		l.Put(k*0x9e3779b97f4a7c15, k)
	}
	_, reserved := l.arenaWords()
	if perKey := float64(reserved*8) / keys; perKey > 32 {
		t.Fatalf("%d keys reserve %d arena words: %.1f B/key, want <= 32", keys, reserved, perKey)
	}
	if _, empty := New(4).arenaWords(); empty*8 >= 16<<10 {
		t.Fatalf("an empty list reserves %d bytes, want < 16 KiB", empty*8)
	}
}

// TestSteadyStateDoesNotAllocate: reads, overwrites and scans never reach
// the runtime's allocator, and fresh Puts reach it once per chunk.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	const keys = 1 << 14
	l := New(6)
	for k := uint64(0); k < keys; k++ {
		l.Put(k*2, k)
	}
	var sum uint64
	each := func(_, v uint64) bool { sum += v; return true }
	k := uint64(0)
	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"Get", 0, func() { v, _ := l.Get(k % (2 * keys)); sum += v }},
		{"Put over a resident key", 0, func() { l.Put(k%keys*2, k) }},
		{"Scan of 64 keys", 0, func() { l.Scan(k%keys*2, k%keys*2+126, each) }},
		{"Put of a new key", 0.01, func() { l.Put(k*2+1, k) }},
	} {
		if got := testing.AllocsPerRun(10000, func() { tc.op(); k += 7919 }); got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestAuditCatchesCorruption: the arena audit in CheckInvariants is not
// vacuous. Each case damages a healthy list the way a bug in alloc,
// Delete or the link packing would.
func TestAuditCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(l *List)
	}{
		{"a freed node leaks", func(l *List) { l.free[minNodeWords] = 0 }},
		{"a live node is on a free list", func(l *List) {
			n := l.link(head, 0)
			w := nodeWords(l.nodeHeight(n))
			l.node(n)[keyWord], l.free[w] = uint64(l.free[w]), n
		}},
		{"a free node is on the wrong size's list", func(l *List) {
			l.free[minNodeWords+1], l.free[minNodeWords] = l.free[minNodeWords], l.free[minNodeWords+1]
		}},
		{"a stored height exceeds the node's links", func(l *List) {
			for n := l.link(head, 0); ; n = l.link(n, 0) {
				if words := l.node(n); l.nodeHeight(n) == 1 {
					words[slotWord] += 2
					return
				}
			}
		}},
		{"a node is linked above its height", func(l *List) {
			for n := l.link(head, 0); ; n = l.link(n, 0) {
				if l.nodeHeight(n) == 1 {
					l.setLink(head, l.height-1, n)
					return
				}
			}
		}},
		{"a chunk was closed with room to spare", func(l *List) {
			l.chunks[0] = l.chunks[0][: len(l.chunks[0])-maxNodeWords : cap(l.chunks[0])]
		}},
	} {
		l := New(8)
		for k := uint64(0); k < 400; k++ {
			l.Put(k, k)
		}
		for k := uint64(0); k < 400; k += 2 {
			l.Delete(k)
		}
		if !l.CheckInvariants() {
			t.Fatal("healthy list fails the audit")
		}
		tc.damage(l)
		if l.CheckInvariants() {
			t.Errorf("%s: CheckInvariants still passes", tc.name)
		}
	}
}
