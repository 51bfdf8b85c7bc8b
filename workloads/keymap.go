package workloads

import (
	"repro/internal/hashmap"
	"repro/sim"
)

// KeymapParams configures the §6.8 keymap benchmark: the NCS advances a
// thread-local PRNG 1000 times (compute only, tiny footprint); the CS
// updates a shared pre-populated map, drawing keys from a 1000-element
// thread-local keyset with probability P = 0.9, otherwise minting a new
// random key into the keyset first. Keymap "models server threads with
// short-lived session connections and moderate temporal key reuse...
// There is little or no inter-thread CS access locality."
type KeymapParams struct {
	MapKeys    int     // 10,000,000 full scale; divided by cache scale
	KeysetSize int     // 1000
	ReuseProb  float64 // 0.9
	NCSSpins   int     // 1000 PRNG advances
}

// DefaultKeymap returns the paper's parameters.
func DefaultKeymap() KeymapParams {
	return KeymapParams{MapKeys: 10_000_000, KeysetSize: 1000, ReuseProb: 0.9, NCSSpins: 1000}
}

// BuildKeymap spawns n threads updating a shared map.
func BuildKeymap(e *sim.Engine, l *sim.Lock, n int, p KeymapParams) *hashmap.Map {
	scale := e.Config().Cache.Scale
	keys := p.MapKeys / scale
	if keys < 10_000 {
		keys = 10_000
	}
	m := hashmap.New(keys)
	// "To reduce allocation and deallocation during the measurement
	// interval, we initialize all keys in the map prior to spawning."
	for i := 0; i < keys; i++ {
		m.Put(uint64(i)+1, 0)
	}
	touch := make([]uint64, 0, 64)
	m.Touch = func(off uint64) { touch = append(touch, sharedBase+off) }

	init := newWorkloadRng(e, 0x99)
	for i := 0; i < n; i++ {
		keyset := make([]uint64, p.KeysetSize)
		for k := range keyset {
			keyset[k] = uint64(init.Intn(keys)) + 1
		}
		priv := PrivateBase(i)
		e.Spawn(&Circuit{
			Lock: l,
			NCS: func(t *sim.Thread, addrs []uint64) (sim.Cycles, []uint64) {
				// PRNG advances: pure compute, ~6 cycles each.
				return sim.Cycles(p.NCSSpins) * 6, addrs
			},
			CS: func(t *sim.Thread, addrs []uint64) (sim.Cycles, []uint64) {
				touch = touch[:0]
				idx := t.Rng.Intn(len(keyset))
				// The keyset itself is thread-local data touched in the CS.
				addrs = append(addrs, priv+uint64(idx)*8)
				if !t.Rng.Prob(p.ReuseProb) {
					keyset[idx] = uint64(t.Rng.Intn(keys)) + 1
				}
				m.Put(keyset[idx], t.Rng.Next())
				addrs = append(addrs, touch...)
				return 400, addrs
			},
		})
	}
	return m
}
