// Package rbtree implements a left-leaning red-black tree mapping uint64
// keys to uint64 values. It serves two consumers with one type: the
// sharded store's "rbtree" backend (package store), and the simulator,
// where it stands in for C++ std::map — "implemented via a red-black
// tree" — inside the LRUCache benchmark (§6.9), which ports CEPH's
// SimpleLRU.
//
// The simulator installs the optional NextAddr/Touch hooks: each node
// then carries a synthetic virtual address drawn from a caller-supplied
// bump allocator, and every node visited by an operation is reported, so
// the cache model is charged the real pointer-chasing footprint of the
// tree: the paper's point is precisely that a sequence of short lookups
// eventually touches the whole structure ("the CS may be short in average
// duration but wide"). The store leaves both nil and pays one nil check
// per node visit.
package rbtree

const (
	red   = true
	black = false
)

type node struct {
	key, val    uint64
	addr        uint64
	left, right *node
	color       bool
}

// Tree is a left-leaning red-black tree over the full uint64 key domain.
// Beyond the point operations it serves the ordered-read contract a
// store backend needs: Scan and Range expose the key order the tree
// maintains anyway.
//
// Tree is not safe for concurrent use: the caller's lock — in the
// sharded store, the stripe's registry-built lock — provides mutual
// exclusion.
type Tree struct {
	root *node
	size int

	// NextAddr supplies the virtual address for each new node (e.g. a
	// bump pointer into a shared region). Nil means addresses are 0.
	NextAddr func() uint64
	// Touch, if non-nil, receives the address of every node on an
	// operation's search path (rebalancing reads of a path node's
	// children are not reported separately).
	Touch func(addr uint64)
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.size }

func (t *Tree) touch(n *node) {
	if t.Touch != nil && n != nil {
		t.Touch(n.addr)
	}
}

func isRed(n *node) bool { return n != nil && n.color == red }

func (t *Tree) rotateLeft(h *node) *node {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	return x
}

func (t *Tree) rotateRight(h *node) *node {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	return x
}

func flipColors(h *node) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}

// Get returns the value for key and whether it was present.
func (t *Tree) Get(key uint64) (uint64, bool) {
	n := t.root
	for n != nil {
		t.touch(n)
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	return 0, false
}

// Put inserts or updates key. It reports whether the key was new.
func (t *Tree) Put(key, val uint64) bool {
	before := t.size
	t.root = t.insert(t.root, key, val)
	t.root.color = black
	return t.size != before
}

func (t *Tree) insert(h *node, key, val uint64) *node {
	if h == nil {
		t.size++
		n := &node{key: key, val: val, color: red}
		if t.NextAddr != nil {
			n.addr = t.NextAddr()
		}
		t.touch(n)
		return n
	}
	t.touch(h)
	switch {
	case key < h.key:
		h.left = t.insert(h.left, key, val)
	case key > h.key:
		h.right = t.insert(h.right, key, val)
	default:
		h.val = val
	}
	if isRed(h.right) && !isRed(h.left) {
		h = t.rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = t.rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Delete removes key; it reports whether the key was present.
func (t *Tree) Delete(key uint64) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.color = red
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.color = black
	}
	t.size--
	return true
}

func moveRedLeft(t *Tree, h *node) *node {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = t.rotateRight(h.right)
		h = t.rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(t *Tree, h *node) *node {
	flipColors(h)
	if isRed(h.left.left) {
		h = t.rotateRight(h)
		flipColors(h)
	}
	return h
}

func fixUp(t *Tree, h *node) *node {
	if isRed(h.right) {
		h = t.rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = t.rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

func minNode(h *node) *node {
	for h.left != nil {
		h = h.left
	}
	return h
}

func (t *Tree) deleteMin(h *node) *node {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(t, h)
	}
	h.left = t.deleteMin(h.left)
	return fixUp(t, h)
}

func (t *Tree) delete(h *node, key uint64) *node {
	t.touch(h)
	if key < h.key {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(t, h)
		}
		h.left = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = t.rotateRight(h)
		}
		if key == h.key && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(t, h)
		}
		if key == h.key {
			m := minNode(h.right)
			t.touch(m)
			h.key, h.val, h.addr = m.key, m.val, m.addr
			h.right = t.deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, key)
		}
	}
	return fixUp(t, h)
}

// Scan calls fn for every pair with lo <= key <= hi, in ascending key
// order, until fn returns false. Bounds are inclusive, so the full
// domain is Scan(0, ^uint64(0), fn). The tree must not be mutated during
// the walk.
func (t *Tree) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	t.scan(t.root, lo, hi, fn)
}

// scan is a bounded in-order traversal; it reports whether to keep going
// (fn has not returned false).
func (t *Tree) scan(n *node, lo, hi uint64, fn func(key, val uint64) bool) bool {
	if n == nil {
		return true
	}
	t.touch(n)
	if lo < n.key {
		if !t.scan(n.left, lo, hi, fn) {
			return false
		}
	}
	if lo <= n.key && n.key <= hi {
		if !fn(n.key, n.val) {
			return false
		}
	}
	if hi > n.key {
		return t.scan(n.right, lo, hi, fn)
	}
	return true
}

// Range calls fn for every key/value pair until fn returns false. Unlike
// a hash table's Range, the iteration order is ascending key order.
func (t *Tree) Range(fn func(key, val uint64) bool) {
	t.Scan(0, ^uint64(0), fn)
}

// CheckInvariants verifies BST order, no red right links, no double red
// left links, uniform black height, and the size count. For tests.
func (t *Tree) CheckInvariants() bool {
	if isRed(t.root) {
		return false
	}
	bh := -1
	count := 0
	var walk func(n *node, min, max uint64, blacks int) bool
	walk = func(n *node, min, max uint64, blacks int) bool {
		if n == nil {
			if bh == -1 {
				bh = blacks
			}
			return bh == blacks
		}
		count++
		if n.key < min || n.key > max {
			return false
		}
		if isRed(n.right) {
			return false
		}
		if isRed(n) && isRed(n.left) {
			return false
		}
		if !isRed(n) {
			blacks++
		}
		lmax := n.key
		if lmax > 0 {
			lmax--
		}
		return walk(n.left, min, lmax, blacks) && walk(n.right, n.key+1, max, blacks)
	}
	return walk(t.root, 0, ^uint64(0), 0) && count == t.size
}
