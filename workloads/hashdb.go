package workloads

import (
	"repro/internal/hashmap"
	"repro/sim"
)

// HashDBParams configures the §6.6 Kyoto Cabinet kccachetest stand-in: an
// in-memory hash database protected by a single mutex, exercised with a
// fixed key range (the paper fixes 10 M keys so scaling is comparable
// across thread counts).
type HashDBParams struct {
	Keys         int     // full-scale key range (10M), divided by cache scale
	WriteFrac    float64 // fraction of operations that store
	NCSAccesses  int     // private accesses between operations
	PrivateBytes int
	OpCycles     sim.Cycles
}

// DefaultHashDB returns the paper-shaped parameters.
func DefaultHashDB() HashDBParams {
	return HashDBParams{
		Keys:         10_000_000,
		WriteFrac:    0.2,
		NCSAccesses:  100,
		PrivateBytes: 1 << 20,
		OpCycles:     500,
	}
}

// BuildHashDB spawns n threads over a shared preloaded hash database.
func BuildHashDB(e *sim.Engine, l *sim.Lock, n int, p HashDBParams) *hashmap.Map {
	scale := e.Config().Cache.Scale
	keys := p.Keys / scale
	if keys < 10_000 {
		keys = 10_000
	}
	span := p.PrivateBytes / scale
	if span < 4096 {
		span = 4096
	}
	db := hashmap.New(keys)
	for i := 0; i < keys; i++ {
		db.Put(uint64(i)+1, uint64(i))
	}
	touch := make([]uint64, 0, 64)
	db.Touch = func(off uint64) { touch = append(touch, sharedBase+off) }

	for i := 0; i < n; i++ {
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
				if t.Rng.Prob(p.WriteFrac) {
					db.Put(key, t.Rng.Next())
				} else {
					db.Get(key)
				}
				addrs = append(addrs, touch...)
				return p.OpCycles, addrs
			},
		})
	}
	return db
}
