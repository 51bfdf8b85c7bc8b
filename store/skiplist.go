package store

import "repro/internal/skiplist"

// The skiplist backend is internal/skiplist.List with its footprint
// hooks left nil: the same skip list the simulator's kvstore workload
// uses as its memtable. Its nodes live in an arena of plain words the
// list owns (about 27 bytes a key, nothing for the collector to mark; a
// deleted node is reused by the same list, and the memory goes back to
// the runtime when the list is dropped). Tower heights come from a
// backend-local PRNG, so seed= makes the structure deterministic for a
// given insert sequence. It satisfies Ordered: level 0 is the whole map
// in ascending key order, so Scan is a findGE plus a linked-list walk.
func init() {
	Register(Registration{
		Name:    "skiplist",
		Aliases: []string{"skip"},
		Summary: "probabilistic skip list; ordered (Min/Scan), O(log n) point ops, cheap in-order walks",
		Build: func(opts ...Option) Backend {
			cfg := resolve(opts)
			return skiplist.New(cfg.seed)
		},
	})
}
