// Package store defines the pluggable table backends behind the sharded
// KV store's stripes, mirroring the lock registry's design: each backend
// self-registers from its own file's init, and consumers select one with
// a spec string resolved by New — so the data-structure policy of a
// stripe is runtime configuration, exactly like its admission policy:
//
//	b, err := store.New("hashmap")
//	b, err := store.New("skiplist?seed=42")
//	b := store.MustNew("rbtree", store.WithCapacity(1024))
//
// Every backend implements Backend (point operations plus an unordered
// Range). Backends whose structure maintains key order additionally
// implement Ordered (Scan over an inclusive key range in ascending
// order); callers that need order assert for it:
//
//	if ob, ok := b.(Ordered); ok { ob.Scan(lo, hi, fn) }
//
// Backends are deliberately lean: each is its internal container type
// unwrapped, with the optional footprint hook the simulator installs on
// the same type (Touch/NextAddr) left nil — one nil check per node visit
// — and no internal locking. A backend is not safe for concurrent use; the caller's lock — in the sharded store,
// the stripe's registry-built lock — provides mutual exclusion. That
// split keeps both registries orthogonal: pick your lock, pick your
// backend.
package store

import "repro/internal/spec"

// Backend is one stripe's table: a uint64→uint64 map over the full key
// domain (key 0 included). Implementations are single-threaded by
// contract (see the package comment).
type Backend interface {
	// Get returns the value for key and whether it was present.
	Get(key uint64) (uint64, bool)
	// Put inserts or updates key. It reports whether the key was new.
	Put(key, val uint64) bool
	// Delete removes key; it reports whether the key was present.
	Delete(key uint64) bool
	// Len returns the number of keys present.
	Len() int
	// Range calls fn for every key/value pair until fn returns false, in
	// an unspecified order. The backend must not be mutated during the
	// walk.
	Range(fn func(key, val uint64) bool)
}

// Ordered is the extension implemented by backends that maintain key
// order (skiplist, rbtree). Order is what buys range queries: a hash
// table can answer Get but can never answer "the keys in [lo, hi]"
// without a full sweep.
type Ordered interface {
	Backend
	// Scan calls fn for every pair with lo <= key <= hi, in ascending
	// key order, until fn returns false. Bounds are inclusive, so the
	// full domain is Scan(0, ^uint64(0), fn). The backend must not be
	// mutated during the walk.
	Scan(lo, hi uint64, fn func(key, val uint64) bool)
}

// OptimisticReader is the extension implemented by backends whose read
// path is torn-read-safe: safe to execute with no lock, concurrently
// with a mutator running under the stripe lock. Implementing it is how a
// backend opts into the sharded store's optimistic (seqlock-validated)
// read path; backends whose traversals cannot be made torn-read-safe
// cheaply (pointer-chasing trees rebalancing under writers) simply
// decline, and their stripes keep the locked path even when the map is
// configured optimistic.
//
// The contract is deliberately weak, because the seqlock supplies the
// correctness: GetOptimistic may return a stale value, miss a present
// key, or observe a mix of two versions when a mutator overlaps — but it
// must not race (all shared state it touches is accessed atomically),
// must not fault or loop unboundedly on any torn view, and any value it
// returns must be one the backend held for some key at some point. The
// shard layer only trusts a result after validating the stripe's version
// stamp, which proves no mutator overlapped and retroactively upgrades
// the weak read to a linearizable one.
type OptimisticReader interface {
	Backend
	// GetOptimistic is Get with no mutual-exclusion requirement: atomic
	// loads only, no locking, no blocking, bounded work.
	GetOptimistic(key uint64) (uint64, bool)
}

// config carries the construction parameters every backend understands.
// A backend reads what applies to it and ignores the rest (a capacity
// means nothing to a tree; a seed means nothing to a hash table) — the
// same contract the lock options follow.
type config struct {
	capacity int
	seed     uint64
}

// Option configures backend construction.
type Option func(*config)

// WithCapacity pre-sizes the backend for n keys, where pre-sizing is
// meaningful (the hash table's slot array). 0 means the minimum size.
func WithCapacity(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.capacity = n
		}
	}
}

// WithSeed seeds the backend-local PRNG, where one exists (the skip
// list's tower-height generator), making structure deterministic for a
// given insert sequence. Zero keeps the fixed default seed.
func WithSeed(seed uint64) Option {
	return func(c *config) {
		if seed != 0 {
			c.seed = seed
		}
	}
}

// DefaultSeed is the backend PRNG seed when no option or spec parameter
// supplies one.
const DefaultSeed = 1

func resolve(opts []Option) config {
	cfg := config{seed: DefaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Builder constructs a backend from construction options.
type Builder func(opts ...Option) Backend

// Registration describes one backend implementation to the registry;
// the machinery is the same generic internal/spec registry the lock
// family uses.
type Registration = spec.Registration[Builder]

var registry = spec.NewRegistry[Builder]("store", "backend")

// Register adds a backend implementation to the registry. It panics on
// an empty name, a nil builder, or a name/alias collision — registration
// is an init-time act and a collision is a programming error.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("store: Register with empty name or nil builder")
	}
	registry.Register(r)
}

// Names returns the sorted canonical names of every registered backend.
func Names() []string { return registry.Names() }

// Lookup resolves a name or alias to its Registration.
func Lookup(name string) (Registration, bool) { return registry.Lookup(name) }

// New builds a backend from a spec string: a registered name, optionally
// followed by URL-style parameters:
//
//	"hashmap"
//	"skiplist?seed=42"
//	"rbtree"
//	"hashmap?capacity=4096"
//
// Parameters (each maps onto the corresponding Option):
//
//	capacity=N   pre-size for N keys                 WithCapacity
//	seed=N       backend-local PRNG seed             WithSeed
//
// Spec parameters are applied after opts, so the spec overrides
// programmatic defaults. Malformed specs — unknown name, unknown or
// duplicated parameter, bad value — return a descriptive error and a nil
// Backend.
func New(spec string, opts ...Option) (Backend, error) {
	reg, query, err := registry.Resolve(spec)
	if err != nil {
		return nil, err
	}
	specOpts, err := grammar.Parse(spec, query)
	if err != nil {
		return nil, err
	}
	if len(specOpts) > 0 {
		opts = append(append([]Option(nil), opts...), specOpts...)
	}
	return reg.Build(opts...), nil
}

// MustNew is New for tests, examples, and initialization paths where a
// malformed spec is a programming error; it panics instead of returning
// one.
func MustNew(spec string, opts ...Option) Backend {
	b, err := New(spec, opts...)
	if err != nil {
		panic(err)
	}
	return b
}

var grammar = spec.NewGrammar[Option]("store", map[string]spec.ParamFunc[Option]{
	"capacity": func(v string) (Option, error) {
		n, err := spec.NonNegInt(v)
		if err != nil {
			return nil, err
		}
		return WithCapacity(n), nil
	},
	"seed": func(v string) (Option, error) {
		n, err := spec.Uint(v)
		if err != nil {
			return nil, err
		}
		return WithSeed(n), nil
	},
})
