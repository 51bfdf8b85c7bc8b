package workloads

import (
	"testing"

	"repro/sim"
)

// touchDigest is an FNV-1a style fold over a stream of touched addresses.
type touchDigest uint64

func (h *touchDigest) add(a uint64) { *h = (*h ^ touchDigest(a)) * 1099511628211 }

// TestTouchDigestPinned pins the container footprint streams of the four
// workloads that build on internal/{hashmap,skiplist,rbtree}: a short
// fixed-seed run's digest of every address the container hook reports
// inside critical sections, plus the run's step and LLC-miss counts. The
// values were computed at the commit before the simulator-only container
// types were folded into the store-grade ones; a container change that
// visits different nodes, assigns different addresses or draws different
// tower heights moves them, and with them the paper's figures.
func TestTouchDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(e *sim.Engine, l *sim.Lock, h *touchDigest)
		digest    uint64
		steps     uint64
		llcMisses uint64
	}{
		{"keymap", func(e *sim.Engine, l *sim.Lock, h *touchDigest) {
			m := BuildKeymap(e, l, 8, DefaultKeymap())
			inner := m.Touch
			m.Touch = func(off uint64) { h.add(sharedBase + off); inner(off) }
		}, 0xfe035bd4e4f5ee87, 1817, 891},
		{"hashdb", func(e *sim.Engine, l *sim.Lock, h *touchDigest) {
			m := BuildHashDB(e, l, 8, DefaultHashDB())
			inner := m.Touch
			m.Touch = func(off uint64) { h.add(sharedBase + off); inner(off) }
		}, 0xd4a1dc9f06aae347, 1710, 5261},
		{"kvstore", func(e *sim.Engine, l *sim.Lock, h *touchDigest) {
			m := BuildKVStore(e, l, 8, DefaultKVStore())
			inner := m.Touch
			m.Touch = func(a uint64) { h.add(a); inner(a) }
		}, 0x1c5b2a12668cd3dd, 518, 4157},
		{"lrucache", func(e *sim.Engine, l *sim.Lock, h *touchDigest) {
			c := BuildLRUCache(e, l, 8, DefaultLRUCache())
			inner := c.tree.Touch
			c.tree.Touch = func(a uint64) { h.add(a); inner(a) }
		}, 0x111a70b542941f37, 1118, 1153},
	} {
		cfg := t5(16)
		ConfigureLargePages(&cfg)
		cfg.Seed = 1
		e := sim.New(cfg)
		l := e.NewLock(mcscrSTP())
		h := touchDigest(14695981039346656037)
		tc.build(e, l, &h)
		res := e.RunStandard(2_000_000)
		if uint64(h) != tc.digest || res.Steps != tc.steps || res.CacheStats.LLCMisses != tc.llcMisses {
			t.Errorf("%s: digest=%#x steps=%d llc=%d, pinned digest=%#x steps=%d llc=%d",
				tc.name, uint64(h), res.Steps, res.CacheStats.LLCMisses, tc.digest, tc.steps, tc.llcMisses)
		}
	}
}
