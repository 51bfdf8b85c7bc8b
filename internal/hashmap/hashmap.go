// Package hashmap implements an open-addressing hash table mapping uint64
// keys to uint64 values. It serves two consumers with one type: the
// sharded store's "hashmap" backend (package store), and the simulator,
// where it stands in for C++ std::unordered_map in the keymap benchmark
// (§6.8) and for the in-memory hash database of the Kyoto Cabinet
// stand-in (§6.6). The simulator installs the optional Touch hook so slot
// probes are charged to the cache model — for a large pre-sized table the
// probed slots are the dominant CS footprint, exactly the property keymap
// exploits; the store leaves the hook nil and pays one nil check per
// probe.
package hashmap

import "sync/atomic"

// slotBytes is the footprint of one slot (key + value): the stride of
// the real slot array and the offset unit reported to Touch, so the
// simulator's cache model charges exactly the lines a probe reads.
const slotBytes = 16

// slot is one key and its value, side by side: a probe that matches a
// key finds the value on the same cache line (a 16 B slot never
// straddles one in a line-aligned array).
type slot struct {
	key uint64 // 0 = empty slot
	val uint64
}

// Map is a linear-probing hash table with tombstone-free deletion
// (backward-shift), over the full uint64 key domain: key 0 is held
// out-of-band because 0 marks an empty slot.
//
// Map is not safe for general concurrent use: the caller's lock — in the
// sharded store, the stripe's registry-built lock — provides mutual
// exclusion between mutators. What Map does support, beyond the locked
// contract, is *torn-read-safe* concurrent readers: the slot array lives
// behind an atomically published table pointer and every slot that a
// concurrent reader may observe is accessed with atomic loads and
// stores. GetOptimistic may therefore run with no lock at all,
// concurrently with a mutator. Its result can be stale or torn — a probe
// across a half-finished backward shift can miss a present key — which
// is exactly the contract the seqlock read path needs: the caller
// validates the stripe's version stamp afterwards and discards any read
// that overlapped a write section. What the atomics guarantee is only
// that such a read is *safe*: no data race, no fault, no garbage beyond
// a value the table held at some point.
type Map struct {
	tab  atomic.Pointer[table]
	size int // keys in tab; mutator-side only, guarded by the caller's lock

	// Key 0 lives out-of-band (0 marks an empty slot), as an
	// atomically readable pair. A torn hasZero/zeroVal combination is
	// possible for a concurrent reader and is covered by validation.
	hasZero atomic.Bool
	zeroVal atomic.Uint64

	// Touch, if non-nil, receives the byte offset from slot 0 of every
	// slot a locked-path operation (Get, Put, Delete, Range) reads; the
	// caller adds the table's virtual base address. Key 0 occupies no
	// slot, a grow's rehash is not reported (rare; amortized), and
	// GetOptimistic never calls it: the hook is caller state under the
	// caller's lock, which that path does not hold. Set it before the
	// table is shared.
	Touch func(off uint64)
}

// table is one immutable-shape slot array generation: the array and mask
// never change after publication (grow publishes a new table), only the
// slot contents do, and those only via atomic stores.
type table struct {
	slots []slot
	mask  uint64
}

// New returns a map pre-sized for capacity elements (rounded up to a
// power of two with slack for the probe load factor).
func New(capacity int) *Map {
	n := 16
	for n < capacity*2 {
		n *= 2
	}
	m := &Map{}
	m.tab.Store(&table{slots: make([]slot, n), mask: uint64(n - 1)})
	return m
}

// Mix is the table's 64-bit finalizer hash (Murmur3 fmix64), exported so
// that layered structures (the shard router) can derive their placement
// from the same mixer: the shard index takes the high bits, the slot
// index the low bits, so stripe routing never degrades in-stripe probing.
func Mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Len returns the number of keys present.
func (m *Map) Len() int {
	n := m.size
	if m.hasZero.Load() {
		n++
	}
	return n
}

// Slots returns the table's slot count.
func (m *Map) Slots() int { return len(m.tab.Load().slots) }

func (m *Map) touch(slot uint64) {
	if m.Touch != nil {
		m.Touch(slot * slotBytes)
	}
}

// zero reads the out-of-band key 0 with atomic loads only, so both the
// locked and the lock-free Get may use it.
func (m *Map) zero() (uint64, bool) {
	if m.hasZero.Load() {
		return m.zeroVal.Load(), true
	}
	return 0, false
}

// Get returns the value for key and whether it was present. Callers
// hold the stripe lock, so no mutator is concurrent and plain loads
// through the published table are exact.
func (m *Map) Get(key uint64) (uint64, bool) {
	if key == 0 {
		return m.zero()
	}
	t := m.tab.Load()
	i := Mix(key) & t.mask
	for {
		m.touch(i)
		s := &t.slots[i]
		switch atomic.LoadUint64(&s.key) {
		case 0:
			return 0, false
		case key:
			return atomic.LoadUint64(&s.val), true
		}
		i = (i + 1) & t.mask
	}
}

// GetOptimistic returns the value for key using only atomic loads, with
// no lock and no mutual exclusion against a concurrent mutator. The
// probe is bounded by the slot count, so a torn view of a backward
// shift (transiently cycle-shaped occupancy) terminates rather than
// spinning. A racing delete's backshift can even pair a matched key
// with a neighboring entry's value mid-move — the weakest "mixed
// versions" outcome the OptimisticReader contract allows. See the type
// comment for the staleness contract: the caller must validate the
// stripe's version stamp and discard torn results.
//
//lockcheck:optimistic
func (m *Map) GetOptimistic(key uint64) (uint64, bool) {
	if key == 0 {
		return m.zero()
	}
	t := m.tab.Load()
	i := Mix(key) & t.mask
	for range t.slots {
		s := &t.slots[i]
		switch atomic.LoadUint64(&s.key) {
		case 0:
			return 0, false
		case key:
			return atomic.LoadUint64(&s.val), true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Put inserts or updates key. It reports whether the key was new.
func (m *Map) Put(key, val uint64) bool {
	if key == 0 {
		fresh := !m.hasZero.Load()
		// Value first: a concurrent reader that observes hasZero
		// observes a value key 0 held at some point.
		m.zeroVal.Store(val)
		m.hasZero.Store(true)
		return fresh
	}
	t := m.tab.Load()
	if m.size*4 >= len(t.slots)*3 {
		t = m.grow(t)
	}
	i := Mix(key) & t.mask
	for {
		m.touch(i)
		s := &t.slots[i]
		switch atomic.LoadUint64(&s.key) {
		case 0:
			// Value before key: a concurrent reader that matches the
			// key loads the value the key was inserted with, never the
			// slot's stale residue.
			atomic.StoreUint64(&s.val, val)
			atomic.StoreUint64(&s.key, key)
			m.size++
			return true
		case key:
			atomic.StoreUint64(&s.val, val)
			return false
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes key with backward-shift deletion; reports presence.
func (m *Map) Delete(key uint64) bool {
	if key == 0 {
		present := m.hasZero.Load()
		m.hasZero.Store(false)
		m.zeroVal.Store(0)
		return present
	}
	t := m.tab.Load()
	i := Mix(key) & t.mask
	for {
		m.touch(i)
		switch atomic.LoadUint64(&t.slots[i].key) {
		case 0:
			return false
		case key:
			m.backshift(t, i)
			m.size--
			return true
		}
		i = (i + 1) & t.mask
	}
}

// Range calls fn for every key/value pair until fn returns false. The
// iteration order is key 0 first (if present), then the table's slot
// order, i.e. unspecified. The table must not be mutated during the walk.
func (m *Map) Range(fn func(key, val uint64) bool) {
	if m.hasZero.Load() && !fn(0, m.zeroVal.Load()) {
		return
	}
	t := m.tab.Load()
	for i := range t.slots {
		m.touch(uint64(i))
		s := &t.slots[i]
		k := atomic.LoadUint64(&s.key)
		if k == 0 {
			continue
		}
		if !fn(k, atomic.LoadUint64(&s.val)) {
			return
		}
	}
}

func (m *Map) backshift(t *table, hole uint64) {
	for {
		atomic.StoreUint64(&t.slots[hole].key, 0)
		next := (hole + 1) & t.mask
		for {
			m.touch(next)
			k := atomic.LoadUint64(&t.slots[next].key)
			if k == 0 {
				return
			}
			home := Mix(k) & t.mask
			// Can k move into the hole? Only if its home position does
			// not lie strictly between hole (exclusive) and next.
			if inCycle(home, hole, next) {
				// Value first, then key, then the vacated slot is
				// cleared on the next outer iteration: a concurrent
				// probe may see the moving key at zero, one, or both
				// positions — torn, but never outside the table's
				// value history for that key.
				atomic.StoreUint64(&t.slots[hole].val, atomic.LoadUint64(&t.slots[next].val))
				atomic.StoreUint64(&t.slots[hole].key, k)
				hole = next
				break
			}
			next = (next + 1) & t.mask
		}
	}
}

// inCycle reports whether home <= hole < cur in circular order, i.e. the
// element at cur may legally relocate to hole.
func inCycle(home, hole, cur uint64) bool {
	if home <= cur {
		return home <= hole && hole < cur
	}
	return home <= hole || hole < cur
}

// grow builds a doubled table with plain stores (unpublished memory) and
// atomically publishes it. Concurrent readers that loaded the old table
// keep probing a frozen generation — the mutator never writes the old
// array again — and readers that load the new pointer see fully
// initialized slots via the publication ordering.
func (m *Map) grow(t *table) *table {
	n := len(t.slots) * 2
	nt := &table{slots: make([]slot, n), mask: uint64(n - 1)}
	for i := range t.slots {
		s := &t.slots[i]
		if k := atomic.LoadUint64(&s.key); k != 0 {
			j := Mix(k) & nt.mask
			for atomic.LoadUint64(&nt.slots[j].key) != 0 {
				j = (j + 1) & nt.mask
			}
			nt.slots[j] = slot{key: k, val: atomic.LoadUint64(&s.val)}
		}
	}
	m.tab.Store(nt)
	return nt
}
