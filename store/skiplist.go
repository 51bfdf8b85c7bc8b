package store

import "repro/internal/skiplist"

// skiplistWidth is the most pairs one node of the skiplist backend
// holds. DESIGN.md §7 has the measurements behind 64.
const skiplistWidth = 64

// The skiplist backend is internal/skiplist.List at width 64 with its
// footprint hooks left nil: the container the simulator's kvstore
// workload uses as its memtable, unrolled. Each node holds up to 64
// sorted pairs under one tower, so a lookup visits ~45× fewer towers
// than a key-per-tower list and a 64-key scan reads two or three nodes
// instead of 64. The towers — minimum key and value, height, links and
// the offset of the node's pair block — live in one arena of plain
// words and the blocks in another, so a lookup's tower walk stays in a
// dense index of ~0.75 MB a million keys and reads one block at its end
// (about 23 bytes a key in all, nothing for the collector to mark; an
// emptied node is reused by the same list, and the memory goes back to
// the runtime when the list is dropped). Tower heights come from a
// backend-local PRNG, so seed= makes the structure deterministic for a
// given insert sequence. It satisfies Ordered: level 0 is the whole map
// in ascending key order, so Scan is a findGE plus a walk along it.
func init() {
	Register(Registration{
		Name:    "skiplist",
		Aliases: []string{"skip"},
		Summary: "unrolled skip list, up to 64 sorted pairs per tower; ordered (Scan), O(log n) point ops, cheap in-order walks",
		Build: func(opts ...Option) Backend {
			cfg := resolve(opts)
			return skiplist.New(cfg.seed, skiplistWidth)
		},
	})
}
