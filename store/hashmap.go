package store

import "repro/internal/hashmap"

// The hashmap backend is internal/hashmap.Map with its footprint hook
// left nil: open addressing, linear probing, backward-shift deletion,
// full uint64 key domain. The type satisfies Backend directly — the
// simulator's keymap and hashdb workloads build on the same one — so the
// registration is the whole adapter. It is the unordered baseline every
// ordered backend is priced against: O(1) point operations, no Scan. It
// is also the first OptimisticReader: its slot array is atomically
// published, so the sharded store's seqlock read path can probe it with
// no lock at all.
func init() {
	Register(Registration{
		Name:    "hashmap",
		Aliases: []string{"hash"},
		Summary: "open-addressing hash table (linear probe, backward-shift delete); fastest point ops, unordered",
		Build: func(opts ...Option) Backend {
			cfg := resolve(opts)
			return hashmap.New(cfg.capacity)
		},
	})
}
