package store

import "repro/internal/rbtree"

// The rbtree backend is internal/rbtree.Tree with its footprint hooks
// left nil: the same left-leaning red-black tree the simulator's LRUCache
// workload builds on. It satisfies Ordered: Scan is a bounded in-order
// traversal. Balanced-tree worst cases are deterministic where
// the skip list's are probabilistic — the trade the two ordered backends
// exist to measure.
func init() {
	Register(Registration{
		Name:    "rbtree",
		Aliases: []string{"rb", "tree"},
		Summary: "left-leaning red-black tree; ordered (Scan), deterministic O(log n) bounds",
		Build: func(opts ...Option) Backend {
			_ = resolve(opts) // capacity/seed mean nothing to a tree
			return rbtree.New()
		},
	})
}
