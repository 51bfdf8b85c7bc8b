package workloads

import (
	"repro/internal/skiplist"
	"repro/sim"
)

// KVStoreParams configures the §6.5 leveldb readwhilewriting stand-in: a
// skiplist memtable behind one central database lock, one writer thread
// and n-1 reader threads (see DESIGN.md for the substitution rationale —
// the contention structure matches leveldb's central mutex).
type KVStoreParams struct {
	// Keys is the full-scale preloaded key count (divided by cache scale).
	Keys int
	// ReaderNCS / WriterNCS: private-region accesses between operations.
	NCSAccesses int
	// PrivateBytes is the full-scale per-thread private footprint.
	PrivateBytes int
	OpCycles     sim.Cycles
}

// DefaultKVStore returns representative parameters: a 100k-key memtable
// and 1 MB private working sets (both scaled).
func DefaultKVStore() KVStoreParams {
	return KVStoreParams{
		Keys:         100_000,
		NCSAccesses:  150,
		PrivateBytes: 1 << 20,
		OpCycles:     600,
	}
}

// BuildKVStore spawns one writer and n-1 readers over a shared memtable.
// It returns the memtable for inspection.
func BuildKVStore(e *sim.Engine, l *sim.Lock, n int, p KVStoreParams) *skiplist.List {
	scale := e.Config().Cache.Scale
	keys := p.Keys / scale
	if keys < 1000 {
		keys = 1000
	}
	span := p.PrivateBytes / scale
	if span < 4096 {
		span = 4096
	}

	// Width 1: one key per tower, as in leveldb's memtable, so every
	// operation's footprint is the classic skip path the cache model and
	// the pinned touch digest were built on. The store's width-64 list
	// would charge far fewer, larger nodes.
	mem := skiplist.New(e.Config().Seed+17, 1)
	nextAddr := sharedBase
	mem.NextAddr = func() uint64 { nextAddr += 128; return nextAddr }
	for i := 0; i < keys; i++ {
		mem.Put(uint64(i)+1, uint64(i))
	}
	touch := make([]uint64, 0, 128)
	mem.Touch = func(addr uint64) { touch = append(touch, addr) }

	for i := 0; i < n; i++ {
		writer := i == 0
		priv := PrivateBase(i)
		e.Spawn(&Circuit{
			Lock: l,
			NCS: func(t *sim.Thread, addrs []uint64) (sim.Cycles, []uint64) {
				for k := 0; k < p.NCSAccesses; k++ {
					addrs = append(addrs, randIn(t, priv, span))
				}
				return sim.Cycles(p.NCSAccesses) * 20, addrs
			},
			CS: func(t *sim.Thread, addrs []uint64) (sim.Cycles, []uint64) {
				touch = touch[:0]
				key := uint64(t.Rng.Intn(keys)) + 1
				if writer {
					mem.Put(key, t.Rng.Next())
				} else {
					mem.Get(key)
				}
				addrs = append(addrs, touch...)
				return p.OpCycles, addrs
			},
		})
	}
	return mem
}
