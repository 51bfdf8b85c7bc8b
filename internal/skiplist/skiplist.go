// Package skiplist implements an ordered map over a probabilistic skip
// list. It serves two consumers with one type: the sharded store's
// "skiplist" backend (package store), and the simulator, where it stands
// in for the leveldb memtable in the kvstore workload (§6.5). The
// simulator installs the optional NextAddr/Touch hooks so node visits
// are charged to the cache model as the structure's pointer-chasing
// footprint; the store leaves both nil and pays one nil check per node
// visit.
//
// Nodes are not Go objects. A node is a run of 64-bit words in an arena
// the list owns — key, value, then 32-bit slots packed two to a word:
// slot 0 the tower height, slot 1+lvl the level-lvl link — and a link
// is the word offset of the node it names, 0 for nil. A height-1 node is
// 24 bytes, the tallest 72, about 27 bytes per key on average; the arena
// holds no pointers, so the collector never scans it, and two or three
// nodes share a cache line. DESIGN.md §7 has the reasons and the costs.
package skiplist

import (
	"fmt"

	"repro/internal/xrand"
)

const (
	maxHeight = 12

	// Node layout, in words: key, value, then the slots. Word 0 of a
	// deleted node holds the next free offset instead of a key.
	keyWord  = 0
	valWord  = 1
	slotWord = 2

	minNodeWords = slotWord + (1+2)/2 // nodeWords(1)
	maxNodeWords = slotWord + (maxHeight+2)/2

	// The head tower is the first node in the arena. Nothing links to
	// it, so its offset doubles as the nil link.
	head = uint32(0)

	// The arena is a list of chunks. Offset n lives in chunk n>>chunkShift
	// at index n&chunkMask, so every chunk owns a fixed range of offsets
	// whatever its real size: the first chunks are allocated short
	// (1<<minChunkShift words, doubling) so that an empty list costs
	// 2 KiB, and only the offsets they leave unused are lost.
	chunkShift    = 15 // 32 Ki words = 256 KiB, the most one growth step zeroes
	chunkMask     = 1<<chunkShift - 1
	minChunkShift = 8
)

// arenaLimit is the number of word offsets a 32-bit link can name. A
// variable only so that a test can lower it.
var arenaLimit uint64 = 1 << 32

// nodeWords is the size of a node of height h: key, value, and h+1 slots
// two to a word.
func nodeWords(h int) int { return slotWord + (h+2)/2 }

// List is a skip list mapping uint64 keys to uint64 values over the full
// uint64 key domain. Beyond the point operations it serves the
// ordered-read contract a store backend needs: Min / Scan / Range expose
// the key order the tower structure maintains anyway.
//
// One list holds at most 2^32 arena words — 32 GiB, about 1.2 billion
// keys; a Put that would pass that panics. The arena grows a chunk at a
// time and never moves a node. Delete returns a node to the list's own
// free lists, where a later Put of the same size finds it, not to the
// runtime: the memory is released only when the list itself is dropped
// (in the sharded store, by a Reconfigure that swaps the backend).
//
// List is not safe for concurrent use: the caller's lock — in the
// sharded store, the stripe's registry-built lock — provides mutual
// exclusion.
type List struct {
	// chunks[i][:len] is allocated to nodes (the head first); the rest of
	// its capacity is untouched zeroes, or, once a later chunk exists, the
	// slack a node did not fit into.
	chunks [][]uint64
	// free[w] heads the list of deleted w-word nodes, linked through
	// their first word.
	free   [maxNodeWords + 1]uint32
	height int
	size   int
	rng    xrand.State

	// NextAddr, if non-nil, supplies the virtual address of each new
	// node; Touch, if non-nil, receives the address of every node an
	// operation visits.
	NextAddr func() uint64
	Touch    func(addr uint64)
	// addr maps a node's offset to the address NextAddr gave it. Nil
	// until a Put runs with NextAddr set: only the simulator pays for it.
	addr map[uint32]uint64
}

// New returns an empty list whose tower heights are drawn from a
// generator seeded with seed (deterministic structure for a given insert
// sequence).
func New(seed uint64) *List {
	l := &List{height: 1}
	l.rng.Seed(seed)
	l.grow()
	l.alloc(maxHeight) // the head, at offset 0
	return l
}

// Len returns the number of keys.
func (l *List) Len() int { return l.size }

// node returns the words of node n, running on to the end of its chunk.
func (l *List) node(n uint32) []uint64 { return l.chunks[n>>chunkShift][n&chunkMask:] }

func (l *List) key(n uint32) uint64 { return l.node(n)[keyWord] }

// slot returns 32-bit slot s of the node whose words these are: the low
// (even s) or high (odd s) half of word slotWord+s/2 — two shifts per
// read where a pointer node had one load.
func slot(words []uint64, s uint) uint32 { return uint32(words[slotWord+s/2] >> (s % 2 * 32)) }

func (l *List) nodeHeight(n uint32) int { return int(slot(l.node(n), 0)) }

func (l *List) link(n uint32, lvl int) uint32 { return slot(l.node(n), uint(lvl)+1) }

func (l *List) setLink(n uint32, lvl int, to uint32) {
	s := uint(lvl) + 1
	w := &l.node(n)[slotWord+s/2]
	shift := s % 2 * 32
	*w = *w&^(0xffffffff<<shift) | uint64(to)<<shift
}

// grow appends an empty chunk. Existing chunks are never reallocated: a
// copy inside a stripe's critical section would be charged to every
// waiter.
func (l *List) grow() {
	n := len(l.chunks)
	if uint64(n+1)<<chunkShift > arenaLimit {
		panic(fmt.Sprintf("skiplist: list of %d keys is full: a list's arena holds at most 2^32 words (32 GiB)", l.size))
	}
	words := 1 << chunkShift
	if n < chunkShift-minChunkShift {
		words = 1 << (minChunkShift + n)
	}
	l.chunks = append(l.chunks, make([]uint64, 0, words))
}

// alloc returns a zeroed node of height h with its height slot set: a
// deleted node of the same size if there is one, else fresh words from
// the last chunk, or from a new chunk when the node would straddle.
func (l *List) alloc(h int) uint32 {
	w := nodeWords(h)
	n := l.free[w]
	if n != 0 {
		words := l.node(n)[:w]
		l.free[w] = uint32(words[keyWord])
		clear(words)
	} else {
		last := len(l.chunks) - 1
		if c := l.chunks[last]; len(c)+w > cap(c) {
			l.grow()
			last++
		}
		c := l.chunks[last]
		l.chunks[last] = c[:len(c)+w]
		n = uint32(last)<<chunkShift | uint32(len(c))
	}
	l.node(n)[slotWord] = uint64(h)
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

// findGE locates the first node with key >= key and fills prev with the
// predecessors at each level.
func (l *List) findGE(key uint64, prev *[maxHeight]uint32) uint32 {
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
	n := slot(xw, 1)
	l.touch(n)
	return n
}

// Get returns the value for key and whether it is present.
func (l *List) Get(key uint64) (uint64, bool) {
	if n := l.findGE(key, nil); n != 0 {
		if words := l.node(n); words[keyWord] == key {
			return words[valWord], true
		}
	}
	return 0, false
}

// Put inserts or updates key. It reports whether the key was new.
func (l *List) Put(key, val uint64) bool {
	var prev [maxHeight]uint32 // zero is the head: right for every level above l.height
	n := l.findGE(key, &prev)
	if n != 0 && l.key(n) == key {
		l.node(n)[valWord] = val
		return false
	}
	h := l.randomHeight()
	nn := l.alloc(h)
	if h > l.height {
		l.height = h
	}
	words := l.node(nn)
	words[keyWord], words[valWord] = key, val
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
	l.size++
	return true
}

// Delete removes key, reporting whether it was present.
func (l *List) Delete(key uint64) bool {
	var prev [maxHeight]uint32
	n := l.findGE(key, &prev)
	if n == 0 || l.key(n) != key {
		return false
	}
	h := l.nodeHeight(n)
	for lvl := 0; lvl < h; lvl++ {
		if l.link(prev[lvl], lvl) == n {
			l.setLink(prev[lvl], lvl, l.link(n, lvl))
		}
	}
	w := nodeWords(h)
	l.node(n)[keyWord] = uint64(l.free[w])
	l.free[w] = n
	delete(l.addr, n)
	l.size--
	return true
}

// Min returns the smallest key, or ok=false when empty.
func (l *List) Min() (key uint64, ok bool) {
	n := l.link(head, 0)
	if n == 0 {
		return 0, false
	}
	l.touch(n)
	return l.key(n), true
}

// Scan calls fn for every pair with lo <= key <= hi, in ascending key
// order, until fn returns false. Bounds are inclusive, so the full
// domain is Scan(0, ^uint64(0), fn). The list must not be mutated during
// the walk.
func (l *List) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	for n := l.findGE(lo, nil); n != 0; {
		words := l.node(n)
		if words[keyWord] > hi || !fn(words[keyWord], words[valWord]) {
			return
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

// arenaWords returns how many arena words nodes have ever occupied (the
// high-water mark: deleted nodes still count) and how many the chunks
// reserve.
func (l *List) arenaWords() (used, reserved int) {
	for _, c := range l.chunks {
		used += len(c)
		reserved += cap(c)
	}
	return used, reserved
}

// CheckInvariants verifies level-0 strict ordering, the size count, and
// that each higher level is exactly the ascending subsequence of level 0
// whose stored height reaches it; then audits the arena: every allocated
// word belongs to exactly one of the head, a reachable node or a node on
// the free list of its size (so no free node is reachable), and a chunk
// was closed only because a node did not fit in what it had left. For
// tests.
func (l *List) CheckInvariants() bool {
	owned := make([][]bool, len(l.chunks))
	for i, c := range l.chunks {
		owned[i] = make([]bool, len(c))
		if i < len(l.chunks)-1 && cap(c)-len(c) >= maxNodeWords {
			return false
		}
	}
	// claim marks the w words of node n, refusing words that lie outside
	// the allocated part of n's chunk or already have an owner.
	claimed := 0
	claim := func(n uint32, w int) bool {
		ci, at := int(n>>chunkShift), int(n&chunkMask)
		if ci >= len(owned) || at+w > len(owned[ci]) {
			return false
		}
		for i := at; i < at+w; i++ {
			if owned[ci][i] {
				return false
			}
			owned[ci][i] = true
		}
		claimed += w
		return true
	}
	if l.nodeHeight(head) != maxHeight || !claim(head, maxNodeWords) {
		return false
	}

	seen := map[uint64]bool{}
	var reach [maxHeight + 1]int // reach[h]: nodes of height >= h
	for x := l.link(head, 0); x != 0; x = l.link(x, 0) {
		h := l.nodeHeight(x)
		if h < 1 || h > l.height || !claim(x, nodeWords(h)) {
			return false
		}
		if next := l.link(x, 0); next != 0 && l.key(next) <= l.key(x) {
			return false
		}
		seen[l.key(x)] = true
		for lvl := 1; lvl <= h; lvl++ {
			reach[lvl]++
		}
	}
	if len(seen) != l.size {
		return false
	}
	for lvl := 1; lvl < maxHeight; lvl++ {
		prev := uint64(0)
		count := 0
		for x := l.link(head, lvl); x != 0; x = l.link(x, lvl) {
			if !seen[l.key(x)] || l.nodeHeight(x) <= lvl {
				return false
			}
			if count > 0 && l.key(x) <= prev {
				return false
			}
			prev = l.key(x)
			count++
		}
		if count != reach[lvl+1] {
			return false
		}
	}

	for w := minNodeWords; w <= maxNodeWords; w++ {
		for n := l.free[w]; n != 0; n = uint32(l.node(n)[keyWord]) {
			if !claim(n, w) || nodeWords(l.nodeHeight(n)) != w {
				return false
			}
		}
	}
	used, _ := l.arenaWords()
	return claimed == used // claims are disjoint, so equality leaves no word unowned
}
