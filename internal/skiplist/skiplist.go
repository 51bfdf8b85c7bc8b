// Package skiplist implements an ordered map over a probabilistic skip
// list. It serves two consumers with one type: the sharded store's
// "skiplist" backend (package store), and the simulator, where it stands
// in for the leveldb memtable in the kvstore workload (§6.5). The
// simulator installs the optional NextAddr/Touch hooks so node visits
// are charged to the cache model as the structure's pointer-chasing
// footprint; the store leaves both nil and pays one nil check per node
// visit.
package skiplist

import "repro/internal/xrand"

const maxHeight = 12

type node struct {
	key, val uint64
	addr     uint64
	next     [maxHeight]*node
	height   int
}

// List is a skip list mapping uint64 keys to uint64 values over the full
// uint64 key domain. Beyond the point operations it serves the
// ordered-read contract a store backend needs: Min / Scan / Range expose
// the key order the tower structure maintains anyway.
//
// List is not safe for concurrent use: the caller's lock — in the
// sharded store, the stripe's registry-built lock — provides mutual
// exclusion.
type List struct {
	head   node
	height int
	size   int
	rng    xrand.State

	// NextAddr, if non-nil, supplies the virtual address of each new
	// node; Touch, if non-nil, receives the address of every node an
	// operation visits.
	NextAddr func() uint64
	Touch    func(addr uint64)
}

// New returns an empty list whose tower heights are drawn from a
// generator seeded with seed (deterministic structure for a given insert
// sequence).
func New(seed uint64) *List {
	l := &List{height: 1}
	l.head.height = maxHeight
	l.rng.Seed(seed)
	return l
}

// Len returns the number of keys.
func (l *List) Len() int { return l.size }

func (l *List) touch(n *node) {
	if l.Touch != nil && n != nil && n != &l.head {
		l.Touch(n.addr)
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
func (l *List) findGE(key uint64, prev *[maxHeight]*node) *node {
	x := &l.head
	for lvl := l.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < key {
			x = x.next[lvl]
			l.touch(x)
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	n := x.next[0]
	l.touch(n)
	return n
}

// Get returns the value for key and whether it is present.
func (l *List) Get(key uint64) (uint64, bool) {
	n := l.findGE(key, nil)
	if n != nil && n.key == key {
		return n.val, true
	}
	return 0, false
}

// Put inserts or updates key. It reports whether the key was new.
func (l *List) Put(key, val uint64) bool {
	var prev [maxHeight]*node
	n := l.findGE(key, &prev)
	if n != nil && n.key == key {
		n.val = val
		return false
	}
	h := l.randomHeight()
	if h > l.height {
		for lvl := l.height; lvl < h; lvl++ {
			prev[lvl] = &l.head
		}
		l.height = h
	}
	nn := &node{key: key, val: val, height: h}
	if l.NextAddr != nil {
		nn.addr = l.NextAddr()
	}
	l.touch(nn)
	for lvl := 0; lvl < h; lvl++ {
		nn.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = nn
	}
	l.size++
	return true
}

// Delete removes key, reporting whether it was present.
func (l *List) Delete(key uint64) bool {
	var prev [maxHeight]*node
	n := l.findGE(key, &prev)
	if n == nil || n.key != key {
		return false
	}
	for lvl := 0; lvl < n.height; lvl++ {
		if prev[lvl].next[lvl] == n {
			prev[lvl].next[lvl] = n.next[lvl]
		}
	}
	l.size--
	return true
}

// Min returns the smallest key, or ok=false when empty.
func (l *List) Min() (key uint64, ok bool) {
	n := l.head.next[0]
	if n == nil {
		return 0, false
	}
	l.touch(n)
	return n.key, true
}

// Scan calls fn for every pair with lo <= key <= hi, in ascending key
// order, until fn returns false. Bounds are inclusive, so the full
// domain is Scan(0, ^uint64(0), fn). The list must not be mutated during
// the walk.
func (l *List) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	for n := l.findGE(lo, nil); n != nil && n.key <= hi; n = n.next[0] {
		if !fn(n.key, n.val) {
			return
		}
		l.touch(n.next[0])
	}
}

// Range calls fn for every key/value pair until fn returns false. Unlike
// a hash table's Range, the iteration order is ascending key order.
func (l *List) Range(fn func(key, val uint64) bool) {
	l.Scan(0, ^uint64(0), fn)
}

// CheckInvariants verifies level-0 strict ordering, the size count, and
// that each higher level is a subsequence of level 0. For tests.
func (l *List) CheckInvariants() bool {
	seen := map[uint64]bool{}
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		if x.next[0] != nil && x.next[0].key <= x.key {
			return false
		}
		seen[x.key] = true
	}
	if len(seen) != l.size {
		return false
	}
	for lvl := 1; lvl < l.height; lvl++ {
		prev := uint64(0)
		first := true
		for x := l.head.next[lvl]; x != nil; x = x.next[lvl] {
			if !seen[x.key] {
				return false
			}
			if !first && x.key <= prev {
				return false
			}
			prev, first = x.key, false
		}
	}
	return true
}
