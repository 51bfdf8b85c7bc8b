// Package skiplist implements an ordered map over an unrolled skip list:
// each node holds 1..width sorted pairs under one tower, and the towers
// order the nodes by their minimum keys. The width is fixed when a list
// is built. One type serves two consumers: the sharded store's
// "skiplist" backend (package store) builds width 64, and the simulator,
// where the list stands in for the leveldb memtable in the kvstore
// workload (§6.5), builds width 1 — one key per tower, the classic list.
// The simulator installs the optional NextAddr/Touch hooks so node visits
// are charged to the cache model as the structure's pointer-chasing
// footprint; the store leaves both nil and pays one nil check per node
// visit.
//
// Nodes are not Go objects. A node is one or two runs of 64-bit words
// in arenas the list owns, and a link is the word offset of the run it
// names, 0 for nil. The tower, in the tower arena, holds the node's
// minimum key and that key's value, then 32-bit slots packed two to a
// word: slot 0 the tower height and the pair count, slot 1+lvl the
// level-lvl link and, at width > 1, one more slot naming the node's pair
// block. The block, in the block arena, holds keys 1..width-1 then values
// 1..width-1. A search reads only minima and links, so it walks the tower
// arena alone — a dense index of a few words a node — and reads one
// block, that of the node where the key can be. A width-1 node is the
// key-per-tower list's — key, value, slots — 24 to 72 bytes, about 27
// per key, and its list has no block arena; a width-64 node is a 32- to
// 72-byte tower and a 1,008-byte block, 32 to 64 pairs between them,
// about 23 bytes per key. The arenas hold no pointers, so the collector never
// scans them. DESIGN.md §7 has the reasons and the costs.
package skiplist

import (
	"fmt"

	"repro/internal/xrand"
)

const (
	maxHeight = 12

	// Tower layout, in words: key 0 (the node's minimum), value 0, then
	// the slots. Word 0 of a deleted tower holds the next free offset
	// instead of a key, as word 0 of a deleted block does.
	keyWord      = 0
	valWord      = 1
	slotWord     = 2
	maxSlotWords = (maxHeight + 3) / 2 // slotWords(maxHeight + 2): a tallest tower's slots, block slot included

	// Slot 0 holds the tower height in its low 16 bits and the pair
	// count in its high 16.
	countShift = 16

	// The head tower is the first in the tower arena, and at width > 1
	// its block is the first in the block arena. Nothing links to either
	// and neither is ever freed, so offset 0 doubles as the nil link and
	// the end of both kinds of free list. The head holds no pairs.
	head = uint32(0)

	// An arena is a list of chunks. Offset n lives in chunk n>>chunkShift
	// at index n&chunkMask, so every chunk owns a fixed range of offsets
	// whatever its real size: the first chunks are allocated short
	// (1<<minChunkShift words, doubling) so that an empty list costs
	// 2 KiB an arena, and only the offsets they leave unused are lost.
	chunkShift    = 15 // 32 Ki words = 256 KiB, the most one growth step zeroes
	chunkMask     = 1<<chunkShift - 1
	minChunkShift = 8

	// maxWidth is the widest node whose block fits the first chunk.
	maxWidth = 1<<minChunkShift/2 + 1
)

// arenaLimit is the number of word offsets a 32-bit link can name. A
// variable only so that a test can lower it.
var arenaLimit uint64 = 1 << 32

// slotWords is the number of words holding n slots.
func slotWords(n int) int { return (n + 1) / 2 }

// arena is a list of chunks: chunks[i][:len] is allocated (to towers, or
// to blocks); the rest of its capacity is untouched zeroes, or, once a
// later chunk exists, the slack a run did not fit into.
type arena [][]uint64

// at returns the words from offset n to the end of its chunk.
func (a arena) at(n uint32) []uint64 { return a[n>>chunkShift][n&chunkMask:] }

// words returns how many words runs have ever occupied (the high-water
// mark: freed runs still count) and how many the chunks reserve.
func (a arena) words() (used, reserved int) {
	for _, c := range a {
		used += len(c)
		reserved += cap(c)
	}
	return used, reserved
}

// List is a skip list mapping uint64 keys to uint64 values over the full
// uint64 key domain. Beyond the point operations it serves the
// ordered-read contract a store backend needs: Scan and Range expose
// the key order the tower structure maintains anyway.
//
// Each of a list's arenas holds at most 2^32 words — 32 GiB, about 1.2
// billion keys at width 1 — and a Put that would pass that panics. An
// arena grows a chunk at a time and never moves a tower or a block.
// Delete returns an emptied node's tower and block to the list's own
// free lists, where a later Put needing a tower of the same size (and a
// block; all have one size) finds them, not to the runtime: the memory
// is released only when the list itself is dropped (in the sharded
// store, with the map).
//
// List is not safe for concurrent use: the caller's lock — in the
// sharded store, the stripe's registry-built lock — provides mutual
// exclusion.
type List struct {
	// towers holds the towers, the head's first; blocks holds the pair
	// blocks, the head's first, and is empty at width 1.
	towers, blocks arena
	// free[s] heads the list of deleted towers whose slots take s words
	// (all towers of one size), linked through their first word;
	// freeBlocks heads the list of deleted blocks, linked likewise.
	free       [maxSlotWords + 1]uint32
	freeBlocks uint32
	width      int
	height     int
	size       int
	rng        xrand.State

	// NextAddr, if non-nil, supplies the virtual address of each new
	// node; Touch, if non-nil, receives the address of every node an
	// operation visits.
	NextAddr func() uint64
	Touch    func(addr uint64)
	// addr maps a node's offset to the address NextAddr gave it. Nil
	// until a Put runs with NextAddr set: only the simulator pays for it.
	addr map[uint32]uint64
}

// New returns an empty list whose nodes hold up to width pairs (1 to
// 129) and whose tower heights are drawn from a generator seeded with
// seed (deterministic structure for a given insert sequence).
func New(seed uint64, width int) *List {
	if width < 1 || width > maxWidth {
		panic(fmt.Sprintf("skiplist: width %d outside 1..%d", width, maxWidth))
	}
	l := &List{width: width, height: 1}
	l.rng.Seed(seed)
	l.alloc(maxHeight) // the head, at offset 0 of each arena
	return l
}

// Len returns the number of keys.
func (l *List) Len() int { return l.size }

// towerSlots is the number of slots of a height-h tower: slot 0, h
// links and, at width > 1, the block slot.
func (l *List) towerSlots(h int) int {
	if l.width > 1 {
		return h + 2
	}
	return h + 1
}

// towerWords is the size of a height-h tower: pair 0, then the slots.
func (l *List) towerWords(h int) int { return 2 + slotWords(l.towerSlots(h)) }

// blockWords is the size of a block: width-1 keys, then as many values.
func (l *List) blockWords() int { return 2 * (l.width - 1) }

// node returns the words of tower n, running on to the end of its chunk.
func (l *List) node(n uint32) []uint64 { return l.towers.at(n) }

func (l *List) key(n uint32) uint64 { return l.node(n)[keyWord] }

// slot returns 32-bit slot s of the tower whose words these are: the low
// (even s) or high (odd s) half of word slotWord+s/2 — two shifts per
// read where a pointer node had one load.
func slot(words []uint64, s uint) uint32 { return uint32(words[slotWord+s/2] >> (s % 2 * 32)) }

func setSlot(words []uint64, s uint, v uint32) {
	w := &words[slotWord+s/2]
	shift := s % 2 * 32
	*w = *w&^(0xffffffff<<shift) | uint64(v)<<shift
}

func height(words []uint64) int { return int(slot(words, 0) & 0xffff) }

func count(words []uint64) int { return int(slot(words, 0) >> countShift) }

// block returns the offset of the block of a width > 1 tower: its slot
// follows the last link.
func block(words []uint64) uint32 { return slot(words, uint(height(words))+1) }

func (l *List) link(n uint32, lvl int) uint32 { return slot(l.node(n), uint(lvl)+1) }

func (l *List) setLink(n uint32, lvl int, to uint32) { setSlot(l.node(n), uint(lvl)+1, to) }

// pairs is a view of one node's pairs. Pair 0, the node's minimum, is
// words 0 and 1 of the tower, where a search reads it; pair i >= 1 is
// keys[i-1] and vals[i-1], in the block (empty at width 1).
type pairs struct {
	words, keys, vals []uint64
}

func (l *List) pairs(n uint32) pairs {
	w := l.node(n)
	if l.width == 1 {
		return pairs{words: w}
	}
	b, m := l.blocks.at(block(w)), l.width-1
	return pairs{w, b[:m:m], b[m : 2*m : 2*m]}
}

func (p pairs) len() int { return count(p.words) }

func (p pairs) setLen(c int) {
	p.words[slotWord] = p.words[slotWord]&^(0xffff<<countShift) | uint64(c)<<countShift
}

func (p pairs) pair(i int) (key, val uint64) {
	if i == 0 {
		return p.words[keyWord], p.words[valWord]
	}
	return p.keys[i-1], p.vals[i-1]
}

func (p pairs) set(i int, key, val uint64) {
	if i == 0 {
		p.words[keyWord], p.words[valWord] = key, val
	} else {
		p.keys[i-1], p.vals[i-1] = key, val
	}
}

// search returns the index of the first of pairs 1..len-1 whose key is
// >= key (len if none, 1 in the head) and whether that key equals key.
// Pair 0 is not searched: wherever search is called, the node's minimum
// is below key.
func (p pairs) search(key uint64) (int, bool) {
	n := p.len() - 1 // pairs 1..len-1 are keys[:n]
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo + 1, lo < n && p.keys[lo] == key
}

// insert puts key/val at index i of a node holding fewer than width
// pairs, moving pairs i.. up one.
func (p pairs) insert(i int, key, val uint64) {
	c := p.len()
	if i == 0 && c > 0 {
		// The new pair takes pair 0's words, and the old minimum is
		// inserted as pair 1.
		key, p.words[keyWord] = p.words[keyWord], key
		val, p.words[valWord] = p.words[valWord], val
		i = 1
	}
	if i > 0 {
		copy(p.keys[i:c], p.keys[i-1:c-1])
		copy(p.vals[i:c], p.vals[i-1:c-1])
	}
	p.set(i, key, val)
	p.setLen(c + 1)
}

// remove deletes pair i of a node holding at least two, moving pairs
// i+1.. down one.
func (p pairs) remove(i int) {
	c := p.len()
	if i == 0 {
		p.set(0, p.keys[0], p.vals[0])
		i = 1
	}
	copy(p.keys[i-1:c-2], p.keys[i:c-1])
	copy(p.vals[i-1:c-2], p.vals[i:c-1])
	p.setLen(c - 1)
}

// moveTail appends pairs from.. of p to q, which has room for them.
func (p pairs) moveTail(from int, q pairs) {
	c, qc := p.len(), q.len()
	for i := from; i < c; i++ {
		k, v := p.pair(i)
		q.set(qc+i-from, k, v)
	}
	q.setLen(qc + c - from)
	p.setLen(from)
}

// grow makes room for w words at the end of a's last chunk, appending a
// chunk when they would straddle. Existing chunks are never
// reallocated: a copy inside a stripe's critical section would be
// charged to every waiter.
func (l *List) grow(a *arena, w int) {
	n := len(*a)
	if n > 0 && len((*a)[n-1])+w <= cap((*a)[n-1]) {
		return
	}
	if uint64(n+1)<<chunkShift > arenaLimit {
		panic(fmt.Sprintf("skiplist: list of %d keys is full: each of a list's arenas holds at most 2^32 words (32 GiB)", l.size))
	}
	words := 1 << chunkShift
	if n < chunkShift-minChunkShift {
		words = 1 << (minChunkShift + n)
	}
	*a = append(*a, make([]uint64, 0, words))
}

// take returns the offset of the w words at the end of a's last chunk
// that grow made room for, and allocates them.
func take(a arena, w int) uint32 {
	last := len(a) - 1
	c := a[last]
	a[last] = c[:len(c)+w]
	return uint32(last)<<chunkShift | uint32(len(c))
}

// alloc returns a zeroed tower of height h with its height set and no
// pairs: a deleted tower of the same size if there is one, else fresh
// words. At width > 1 its last slot names a block, likewise deleted or
// fresh; a reused block is not cleared, since the pair count says how
// much of it is live.
func (l *List) alloc(h int) uint32 {
	s, bw := slotWords(l.towerSlots(h)), l.blockWords()
	// Both arenas make room before either hands out a word, so a Put
	// that an arena's limit refuses leaves every word owned.
	if l.free[s] == 0 {
		l.grow(&l.towers, 2+s)
	}
	if bw > 0 && l.freeBlocks == 0 {
		l.grow(&l.blocks, bw)
	}
	n := l.free[s]
	if n != 0 {
		words := l.node(n)[:2+s]
		l.free[s] = uint32(words[keyWord])
		clear(words)
	} else {
		n = take(l.towers, 2+s)
	}
	words := l.node(n)
	words[slotWord] = uint64(h)
	if bw > 0 {
		b := l.freeBlocks
		if b != 0 {
			l.freeBlocks = uint32(l.blocks.at(b)[0])
		} else {
			b = take(l.blocks, bw)
		}
		setSlot(words, uint(h)+1, b)
	}
	return n
}

func (l *List) touch(n uint32) {
	if l.Touch != nil && n != head {
		l.Touch(l.addr[n])
	}
}

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Bernoulli(4) {
		h++
	}
	return h
}

// findGE locates n, the first node whose minimum is >= key, and x, the
// last node whose minimum is < key (the head if there is none), and
// fills prev with x's counterpart at each level: prev[0] is x.
func (l *List) findGE(key uint64, prev *[maxHeight]uint32) (n, x uint32) {
	// x's words are kept across steps and levels, so a step resolves one
	// offset to its chunk (the candidate's), not three.
	x, xw := head, l.node(head)
	for lvl := l.height - 1; lvl >= 0; lvl-- {
		for {
			n := slot(xw, uint(lvl)+1)
			if n == 0 {
				break
			}
			nw := l.node(n)
			if nw[keyWord] >= key {
				break
			}
			x, xw = n, nw
			l.touch(x)
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	n = slot(xw, 1)
	l.touch(n)
	return n, x
}

// Get returns the value for key and whether it is present.
func (l *List) Get(key uint64) (uint64, bool) {
	n, x := l.findGE(key, nil)
	if n != 0 {
		if words := l.node(n); words[keyWord] == key {
			return words[valWord], true
		}
	}
	xp := l.pairs(x)
	if i, ok := xp.search(key); ok {
		return xp.vals[i-1], true
	}
	return 0, false
}

// Put inserts or updates key. It reports whether the key was new.
//
// A new key goes into x, the last node whose minimum is below it, if x
// has room (the head never has). Else, if the next node n has room, n
// takes key or x's last pair at its front. Else a new node is linked in
// after x: it takes only key when key is below every pair or past the
// last pair of the last node, and otherwise x's upper half, with key
// going to whichever half it falls in. At width 1 only the last case
// happens, with key alone.
func (l *List) Put(key, val uint64) bool {
	var prev [maxHeight]uint32 // zero is the head: right for every level above l.height
	n, x := l.findGE(key, &prev)
	var np pairs
	if n != 0 {
		if np = l.pairs(n); np.words[keyWord] == key {
			np.words[valWord] = val
			return false
		}
	}
	xp := l.pairs(x)
	i, found := xp.search(key)
	if found {
		xp.vals[i-1] = val
		return false
	}
	c := xp.len()
	switch {
	case x != head && c < l.width:
		xp.insert(i, key, val)
	case n != 0 && np.len() < l.width:
		if x != head && i < c {
			k, v := xp.pair(c - 1)
			np.insert(0, k, v)
			xp.setLen(c - 1)
			xp.insert(i, key, val)
		} else {
			np.insert(0, key, val)
		}
	default:
		nn := l.pairs(l.newNode(&prev))
		if x == head || n == 0 && i == c {
			nn.insert(0, key, val)
			break
		}
		s := (l.width + 1) / 2
		xp.moveTail(s, nn)
		if i < s {
			xp.insert(i, key, val)
		} else {
			nn.insert(i-s, key, val)
		}
	}
	l.size++
	return true
}

// newNode links a node with no pairs in after prev at every level of a
// freshly drawn height.
func (l *List) newNode(prev *[maxHeight]uint32) uint32 {
	h := l.randomHeight()
	nn := l.alloc(h)
	if h > l.height {
		l.height = h
	}
	if l.NextAddr != nil {
		if l.addr == nil {
			l.addr = map[uint32]uint64{}
		}
		l.addr[nn] = l.NextAddr()
	}
	l.touch(nn)
	for lvl := 0; lvl < h; lvl++ {
		l.setLink(nn, lvl, l.link(prev[lvl], lvl))
		l.setLink(prev[lvl], lvl, nn)
	}
	return nn
}

// Delete removes key, reporting whether it was present.
//
// A node the delete empties is unlinked. Otherwise, when x or n is left
// holding at most ⌈width/4⌉ pairs and the two fit in one node, n's pairs
// move to x and n is unlinked. At width 1 neither holds more than one
// pair, so only the first case happens.
func (l *List) Delete(key uint64) bool {
	var prev [maxHeight]uint32
	n, x := l.findGE(key, &prev)
	var np pairs
	if n != 0 {
		np = l.pairs(n)
	}
	xp := l.pairs(x)
	if n != 0 && np.words[keyWord] == key {
		if np.len() == 1 {
			l.unlink(n, &prev)
			l.size--
			return true
		}
		np.remove(0)
	} else if i, found := xp.search(key); found {
		xp.remove(i)
	} else {
		return false
	}
	l.size--
	if x != head && n != 0 {
		if cx, cn := xp.len(), np.len(); min(cx, cn) <= (l.width+3)/4 && cx+cn <= l.width {
			np.moveTail(0, xp)
			l.unlink(n, &prev)
		}
	}
	return true
}

// unlink takes node n, whose predecessor at each of its levels is prev,
// out of the list and puts its tower on the free list of its size and
// its block on the block free list.
func (l *List) unlink(n uint32, prev *[maxHeight]uint32) {
	words := l.node(n)
	h := height(words)
	for lvl := 0; lvl < h; lvl++ {
		if l.link(prev[lvl], lvl) == n {
			l.setLink(prev[lvl], lvl, l.link(n, lvl))
		}
	}
	if l.width > 1 {
		b := block(words)
		l.blocks.at(b)[0] = uint64(l.freeBlocks)
		l.freeBlocks = b
	}
	s := slotWords(l.towerSlots(h))
	words[keyWord] = uint64(l.free[s])
	l.free[s] = n
	delete(l.addr, n)
}

// Scan calls fn for every pair with lo <= key <= hi, in ascending key
// order, until fn returns false. Bounds are inclusive, so the full
// domain is Scan(0, ^uint64(0), fn). The list must not be mutated during
// the walk.
func (l *List) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	n, x := l.findGE(lo, nil)
	xp := l.pairs(x)
	i, _ := xp.search(lo)
	for c := xp.len(); i < c; i++ {
		if xp.keys[i-1] > hi || !fn(xp.keys[i-1], xp.vals[i-1]) {
			return
		}
	}
	for n != 0 {
		words := l.node(n)
		if words[keyWord] > hi || !fn(words[keyWord], words[valWord]) {
			return
		}
		if c := count(words); c > 1 {
			p := l.pairs(n)
			for i, k := range p.keys[:c-1] {
				if k > hi || !fn(k, p.vals[i]) {
					return
				}
			}
		}
		n = slot(words, 1) // the level-0 link
		l.touch(n)
	}
}

// Range calls fn for every key/value pair until fn returns false. Unlike
// a hash table's Range, the iteration order is ascending key order.
func (l *List) Range(fn func(key, val uint64) bool) {
	l.Scan(0, ^uint64(0), fn)
}

// arenaWords returns how many words of both arenas towers and blocks
// have ever occupied (the high-water mark: freed ones still count) and
// how many the chunks reserve.
func (l *List) arenaWords() (used, reserved int) {
	tu, tr := l.towers.words()
	bu, br := l.blocks.words()
	return tu + bu, tr + br
}

// audit records which words of one arena CheckInvariants has found an
// owner for.
type audit struct {
	owned   [][]bool
	claimed int
}

// newAudit starts an audit of a, or reports false if a chunk before the
// last was closed with room left for a run of max words.
func newAudit(a arena, max int) (*audit, bool) {
	au := &audit{owned: make([][]bool, len(a))}
	for i, c := range a {
		au.owned[i] = make([]bool, len(c))
		if i < len(a)-1 && cap(c)-len(c) >= max {
			return nil, false
		}
	}
	return au, true
}

// claim marks the w words at offset n, refusing words that lie outside
// the allocated part of n's chunk or already have an owner.
func (au *audit) claim(n uint32, w int) bool {
	ci, at := int(n>>chunkShift), int(n&chunkMask)
	if ci >= len(au.owned) || at+w > len(au.owned[ci]) {
		return false
	}
	for i := at; i < at+w; i++ {
		if au.owned[ci][i] {
			return false
		}
		au.owned[ci][i] = true
	}
	au.claimed += w
	return true
}

// complete reports whether every allocated word of a has an owner
// (claims are disjoint, so equal counts leave no word unowned).
func (au *audit) complete(a arena) bool {
	used, _ := a.words()
	return au.claimed == used
}

// CheckInvariants verifies that every node holds 1..width pairs and that
// level 0 yields strictly ascending keys, within nodes and across them,
// as many as the size count; that each higher level is exactly the
// ascending subsequence of level-0 nodes whose stored height reaches it;
// then audits both arenas: every allocated tower word belongs to exactly
// one of the head, a reachable node or a tower on the free list of its
// size (so no free tower is reachable), every allocated block word to
// exactly one of the head's block, a reachable node's or a block on the
// block free list, and a chunk was closed only because a tower or block
// did not fit in what it had left. For tests.
func (l *List) CheckInvariants() bool {
	bw := l.blockWords()
	towers, ok := newAudit(l.towers, l.towerWords(maxHeight))
	blocks, okb := newAudit(l.blocks, bw)
	if !ok || !okb {
		return false
	}
	// claim marks tower n, of height h, and its block.
	claim := func(n uint32, h int) bool {
		return towers.claim(n, l.towerWords(h)) && (bw == 0 || blocks.claim(block(l.node(n)), bw))
	}
	if height(l.node(head)) != maxHeight || l.pairs(head).len() != 0 || !claim(head, maxHeight) {
		return false
	}

	level0 := map[uint32]bool{}
	var reach [maxHeight + 1]int // reach[h]: nodes of height >= h
	keys := 0
	var last uint64
	for x := l.link(head, 0); x != 0; x = l.link(x, 0) {
		h := height(l.node(x))
		if h < 1 || h > l.height || !claim(x, h) {
			return false
		}
		p := l.pairs(x)
		c := p.len()
		if c < 1 || c > l.width {
			return false
		}
		for i := 0; i < c; i++ {
			k, _ := p.pair(i)
			if keys+i > 0 && k <= last {
				return false
			}
			last = k
		}
		keys += c
		level0[x] = true
		for lvl := 1; lvl <= h; lvl++ {
			reach[lvl]++
		}
	}
	if keys != l.size {
		return false
	}
	for lvl := 1; lvl < maxHeight; lvl++ {
		prev := uint64(0)
		nodes := 0
		for x := l.link(head, lvl); x != 0; x = l.link(x, lvl) {
			if !level0[x] || height(l.node(x)) <= lvl {
				return false
			}
			if nodes > 0 && l.key(x) <= prev {
				return false
			}
			prev = l.key(x)
			nodes++
		}
		if nodes != reach[lvl+1] {
			return false
		}
	}

	for s := range l.free {
		for n := l.free[s]; n != 0; n = uint32(l.node(n)[keyWord]) {
			if !towers.claim(n, 2+s) || slotWords(l.towerSlots(height(l.node(n)))) != s {
				return false
			}
		}
	}
	for b := l.freeBlocks; b != 0; b = uint32(l.blocks.at(b)[0]) {
		if !blocks.claim(b, bw) {
			return false
		}
	}
	return towers.complete(l.towers) && blocks.complete(l.blocks)
}
