package skiplist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// widths are the node widths the width-generic tests run at: the
// simulator's 1, the store's 64, 32, and 2 and 3, which split, shift and
// merge nodes within a few keys.
var widths = []int{1, 2, 3, 32, 64}

func forWidths(t *testing.T, ws []int, f func(t *testing.T, width int)) {
	for _, w := range ws {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) { f(t, w) })
	}
}

func TestPutGetDelete(t *testing.T) {
	forWidths(t, widths, testPutGetDelete)
}

func testPutGetDelete(t *testing.T, width int) {
	l := New(1, width)
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
	forWidths(t, widths, testMin)
}

func testMin(t *testing.T, width int) {
	l := New(3, width)
	if _, ok := scanMin(l); ok {
		t.Fatal("Scan yielded a pair from an empty list")
	}
	l.Put(50, 1)
	l.Put(10, 1)
	l.Put(90, 1)
	if k, ok := scanMin(l); !ok || k != 10 {
		t.Fatalf("Scan's first key=%d,%v, want 10", k, ok)
	}
}

// scanMin returns the smallest key of l, Scan's first pair over the full
// domain, or ok=false when l is empty.
func scanMin(l *List) (key uint64, ok bool) {
	l.Scan(0, ^uint64(0), func(k, _ uint64) bool {
		key, ok = k, true
		return false
	})
	return key, ok
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		l := New(seed^0xabcd, widths[seed%uint64(len(widths))])
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
	forWidths(t, widths, testOrderedOps)
}

func testOrderedOps(t *testing.T, width int) {
	l := New(7, width)
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
}

// TestDeterministicTowers: two lists with the same seed, width and
// insert sequence are structurally identical — the property seed= exists
// for.
func TestDeterministicTowers(t *testing.T) {
	forWidths(t, widths, testDeterministicTowers)
}

func testDeterministicTowers(t *testing.T, width int) {
	a, b := New(42, width), New(42, width)
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
	forWidths(t, widths, testScanBounds)
}

func testScanBounds(t *testing.T, width int) {
	l := New(1, width)
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

// The footprint tests run at width 1, the simulator's configuration.

func TestTouchReportsPath(t *testing.T) {
	l := New(5, 1)
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
	bare, hooked := New(11, 1), New(11, 1)
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
}

// TestArenaLimit lowers the offset space to two chunks an arena: the
// Put that needs a third panics with the list's size, instead of handing
// out an offset that wraps onto a live node, and leaves the list intact.
// At width 1 the tower arena reaches the limit; at width 32 the block
// arena does, with the tower arena still in its first chunk.
func TestArenaLimit(t *testing.T) {
	forWidths(t, []int{1, 32}, testArenaLimit)
}

func testArenaLimit(t *testing.T, width int) {
	defer func(limit uint64) { arenaLimit = limit }(arenaLimit)
	arenaLimit = 2 << chunkShift
	l := New(1, width)
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
	full, other := l.towers, l.blocks
	if width > 1 {
		full, other = l.blocks, l.towers
	}
	if len(full) != 2 || len(other) > 1 || !l.CheckInvariants() {
		t.Fatalf("list damaged by the refused Put: %d tower chunks, %d block chunks", len(l.towers), len(l.blocks))
	}
	if v, ok := l.Get(uint64(l.Len() - 1)); !ok || v != uint64(l.Len()-1) {
		t.Fatalf("last key before the limit reads %d,%v", v, ok)
	}
}

// churn loads 2^14 random keys into l, then replaces a random resident
// key with a new one 2^18 times. It returns the arena's high-water mark
// and reservation after the load and after the churn.
func churn(t *testing.T, l *List) (loaded, reserved, used, after int) {
	const keys, pairs = 1 << 14, 1 << 18
	rng := rand.New(rand.NewSource(3))
	resident := make([]uint64, keys)
	for i := range resident {
		resident[i] = rng.Uint64()
		l.Put(resident[i], 1)
	}
	loaded, reserved = l.arenaWords()
	for i := 0; i < pairs; i++ {
		j := rng.Intn(keys)
		if !l.Delete(resident[j]) {
			t.Fatalf("pair %d: resident key missing", i)
		}
		resident[j] = rng.Uint64()
		l.Put(resident[j], 2)
	}
	used, after = l.arenaWords()
	if l.Len() != keys || !l.CheckInvariants() {
		t.Fatalf("Len=%d after churn, or invariants violated", l.Len())
	}
	return loaded, reserved, used, after
}

// TestChurnReusesFreedNodes: at width 1, replacing random resident keys
// with new ones is served from the free lists. No chunk is added, and
// the high-water mark stays where the load phase put it but for the
// nodes by which a size class's population has exceeded its own earlier
// peak (heights are redrawn, so the mix of sizes wanders around its
// mean).
func TestChurnReusesFreedNodes(t *testing.T) {
	loaded, reserved, used, after := churn(t, New(9, 1))
	if after != reserved {
		t.Fatalf("churn grew the arena from %d to %d words", reserved, after)
	}
	if used > loaded+loaded/32 {
		t.Fatalf("high-water mark moved from %d to %d words", loaded, used)
	}
}

// TestChurnFatNodes: at width 32 the same churn adds no chunk either.
// Nodes refill less than a random load fills them, so the high-water
// mark rises past the load's; it must stay at or below where a width-1
// list ends the same sequence.
func TestChurnFatNodes(t *testing.T) {
	_, reserved, used, after := churn(t, New(9, 32))
	if after != reserved {
		t.Fatalf("churn grew the arena from %d to %d words", reserved, after)
	}
	if _, _, thin, _ := churn(t, New(9, 1)); used > thin {
		t.Fatalf("high-water mark after churn is %d words at width 32, %d at width 1", used, thin)
	}
}

// TestNodeWords: a width-1 node of height h takes exactly the
// key-per-tower node's 2 + (h+2)/2 words and its list reserves no block
// arena; a width-32 node's tower holds one slot more and its block
// 2·31 words in the block arena.
func TestNodeWords(t *testing.T) {
	forWidths(t, []int{1, 32}, testNodeWords)
}

func testNodeWords(t *testing.T, width int) {
	l := New(1, width)
	for h := 1; h <= maxHeight; h++ {
		towers, _ := l.towers.words()
		blocks, _ := l.blocks.words()
		l.alloc(h)
		dt, _ := l.towers.words()
		db, _ := l.blocks.words()
		wantTower, wantBlock := 2+(h+2)/2, 0
		if width > 1 {
			wantTower, wantBlock = 2+(h+3)/2, 2*(width-1)
		}
		if dt-towers != wantTower || db-blocks != wantBlock {
			t.Fatalf("a height-%d node takes %d tower and %d block words, want %d and %d",
				h, dt-towers, db-blocks, wantTower, wantBlock)
		}
	}
	if width == 1 && l.blocks != nil {
		t.Fatalf("a width-1 list reserves %d block chunks", len(l.blocks))
	}
}

func TestFootprintPerKey(t *testing.T) {
	forWidths(t, []int{1, 32}, testFootprintPerKey)
}

func testFootprintPerKey(t *testing.T, width int) {
	const keys = 1 << 16
	for _, load := range []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"random", func(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }},
		{"ascending", func(i uint64) uint64 { return i }},
		{"descending", func(i uint64) uint64 { return keys - i }},
	} {
		l := New(4, width)
		for i := uint64(0); i < keys; i++ {
			l.Put(load.key(i), i)
		}
		_, reserved := l.arenaWords()
		if perKey := float64(reserved*8) / keys; perKey > 32 {
			t.Fatalf("%s load: %d keys reserve %d arena words: %.1f B/key, want <= 32", load.name, keys, reserved, perKey)
		}
	}
	if _, empty := New(4, width).arenaWords(); empty*8 >= 16<<10 {
		t.Fatalf("an empty list reserves %d bytes, want < 16 KiB", empty*8)
	}
}

// TestSteadyStateDoesNotAllocate: reads, overwrites and scans never reach
// the runtime's allocator, and fresh Puts reach it once per chunk.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	forWidths(t, []int{1, 32}, testSteadyStateDoesNotAllocate)
}

func testSteadyStateDoesNotAllocate(t *testing.T, width int) {
	const keys = 1 << 14
	l := New(6, width)
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

// TestWidthsAgree runs one operation sequence through lists of widths 1,
// 2, 3 and 32 and a map: every Put, Delete, Get and bounded Scan must
// answer alike, and after every batch each list must pass
// CheckInvariants and yield the model's pairs from Range. The batches
// cover ascending, descending and random bulk loads, overwrites, deletes
// down to empty and back, so widths 2 and 3 split, shift and merge nodes
// many times over.
func TestWidthsAgree(t *testing.T) {
	lists := make([]*List, len(widths))
	for i, w := range widths {
		lists[i] = New(1, w)
	}
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	sorted := func() []uint64 {
		keys := make([]uint64, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	check := func(batch string) {
		var want []uint64
		for _, k := range sorted() {
			want = append(want, k, model[k])
		}
		for i, l := range lists {
			var got []uint64
			l.Range(func(k, v uint64) bool { got = append(got, k, v); return true })
			if l.Len() != len(model) || !slices.Equal(got, want) || !l.CheckInvariants() {
				t.Fatalf("after %s, width %d: Len=%d (model %d), Range agrees %v, invariants %v",
					batch, widths[i], l.Len(), len(model), slices.Equal(got, want), l.CheckInvariants())
			}
			if m, ok := scanMin(l); ok != (len(want) > 0) || ok && m != want[0] {
				t.Fatalf("after %s, width %d: Scan's first key=%d,%v", batch, widths[i], m, ok)
			}
		}
	}
	put := func(k, v uint64) {
		_, had := model[k]
		model[k] = v
		for i, l := range lists {
			if fresh := l.Put(k, v); fresh == had {
				t.Fatalf("width %d: Put(%d) fresh=%v, model had=%v", widths[i], k, fresh, had)
			}
		}
	}
	del := func(k uint64) {
		_, had := model[k]
		delete(model, k)
		for i, l := range lists {
			if got := l.Delete(k); got != had {
				t.Fatalf("width %d: Delete(%d)=%v, model had=%v", widths[i], k, got, had)
			}
		}
	}
	get := func(k uint64) {
		want, had := model[k]
		for i, l := range lists {
			if v, ok := l.Get(k); ok != had || v != want {
				t.Fatalf("width %d: Get(%d)=%d,%v, model %d,%v", widths[i], k, v, ok, want, had)
			}
		}
	}
	scan := func(lo, hi uint64, limit int) {
		var want []uint64
		for _, k := range sorted() {
			if k >= lo && k <= hi && len(want) < 2*limit {
				want = append(want, k, model[k])
			}
		}
		for i, l := range lists {
			var got []uint64
			l.Scan(lo, hi, func(k, v uint64) bool { got = append(got, k, v); return len(got) < 2*limit })
			if !slices.Equal(got, want) {
				t.Fatalf("width %d: Scan(%d, %d) limit %d yields %v, model %v", widths[i], lo, hi, limit, got, want)
			}
		}
	}

	for k := uint64(1000); k < 1300; k++ {
		put(k*4, k)
	}
	check("ascending load")
	for k := uint64(999); k >= 700; k-- {
		put(k*4, k)
	}
	check("descending load")
	for i := 0; i < 300; i++ {
		put(uint64(rng.Intn(8000)), uint64(i))
	}
	check("random load")
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(8000))
			switch rng.Intn(6) {
			case 0, 1:
				put(k, rng.Uint64())
			case 2:
				del(k)
			case 3: // an overwrite and a delete of resident keys
				if keys := sorted(); len(keys) > 0 {
					put(keys[rng.Intn(len(keys))], rng.Uint64())
					del(keys[rng.Intn(len(keys))])
				}
			case 4:
				get(k)
			case 5:
				scan(k, k+uint64(rng.Intn(400)), 1+rng.Intn(80))
			}
		}
		check(fmt.Sprintf("mixed batch %d", batch))
	}
	for _, k := range sorted() {
		if rng.Intn(4) != 0 {
			del(k)
		}
	}
	check("deleting three in four")
	for _, k := range sorted() {
		del(k)
	}
	check("deleting the rest")
	for k := uint64(0); k < 200; k++ {
		put(k, k)
		put(^k, k)
	}
	scan(0, ^uint64(0), 1000)
	check("reloading both ends of the domain")
}

// TestAuditCatchesCorruption: the arena audit in CheckInvariants is not
// vacuous. Each case damages a healthy list the way a bug in alloc,
// Put, Delete or the link packing would.
func TestAuditCatchesCorruption(t *testing.T) {
	// second returns the first node and the one after it.
	second := func(l *List) (uint32, uint32) {
		n := l.link(head, 0)
		return n, l.link(n, 0)
	}
	for _, tc := range []struct {
		name   string
		width  int
		damage func(l *List)
	}{
		{"a freed node leaks", 1, func(l *List) { l.free[slotWords(l.towerSlots(1))] = 0 }},
		{"a live node is on a free list", 1, func(l *List) {
			n := l.link(head, 0)
			s := slotWords(l.towerSlots(height(l.node(n))))
			l.node(n)[keyWord], l.free[s] = uint64(l.free[s]), n
		}},
		{"a free node is on the wrong size's list", 1, func(l *List) {
			l.free[2], l.free[1] = l.free[1], l.free[2]
		}},
		{"a stored height exceeds the node's links", 1, func(l *List) {
			for n := l.link(head, 0); ; n = l.link(n, 0) {
				if words := l.node(n); height(words) == 1 {
					words[slotWord] += 2
					return
				}
			}
		}},
		{"a node is linked above its height", 1, func(l *List) {
			for n := l.link(head, 0); ; n = l.link(n, 0) {
				if height(l.node(n)) == 1 {
					l.setLink(head, l.height-1, n)
					return
				}
			}
		}},
		{"a chunk was closed with room to spare", 1, func(l *List) {
			l.towers[0] = l.towers[0][: len(l.towers[0])-l.towerWords(maxHeight) : cap(l.towers[0])]
		}},
		{"a node holds no pairs", 32, func(l *List) {
			n, _ := second(l)
			l.pairs(n).setLen(0)
		}},
		{"a node holds more pairs than the width", 32, func(l *List) {
			n, _ := second(l)
			l.pairs(n).setLen(33)
		}},
		{"pairs are out of order inside a node", 32, func(l *List) {
			n, _ := second(l)
			p := l.pairs(n)
			p.keys[0], p.keys[1] = p.keys[1], p.keys[0]
		}},
		{"a node's minimum is not above its predecessor's last key", 32, func(l *List) {
			n, m := second(l)
			p := l.pairs(n)
			l.node(m)[keyWord], _ = p.pair(p.len() - 1)
		}},
		{"a freed block leaks", 32, func(l *List) {
			if l.freeBlocks == 0 {
				t.Fatal("no block was freed")
			}
			l.freeBlocks = 0
		}},
		{"a live block is on the block free list", 32, func(l *List) {
			b := block(l.node(l.link(head, 0)))
			l.blocks.at(b)[0], l.freeBlocks = uint64(l.freeBlocks), b
		}},
		{"two towers name one block", 32, func(l *List) {
			n, m := second(l)
			setSlot(l.node(m), uint(height(l.node(m)))+1, block(l.node(n)))
		}},
	} {
		l := New(8, tc.width)
		for k := uint64(0); k < 400; k++ {
			l.Put(k, k)
		}
		for k := uint64(0); k < 400; k += 2 {
			l.Delete(k)
		}
		for k := uint64(201); k < 300; k += 2 { // empties nodes at width 32
			l.Delete(k)
		}
		if !l.CheckInvariants() {
			t.Fatalf("%s: healthy list fails the audit", tc.name)
		}
		tc.damage(l)
		if l.CheckInvariants() {
			t.Errorf("%s: CheckInvariants still passes", tc.name)
		}
	}
}
