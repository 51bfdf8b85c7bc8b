package lock

import (
	"repro/internal/core"
	"repro/internal/spec"
)

// Instrumented is satisfied by every lock that maintains the CR event
// counters; harness code uses it to read Stats from a Mutex built by New.
type Instrumented interface {
	Stats() core.Snapshot
}

// Builder constructs a lock from construction options.
type Builder func(opts ...Option) Mutex

// Registration describes one lock implementation to the registry. Each
// lock file self-registers in its init, so the registry — not any
// consumer — is the single enumeration of lock names in the module.
// The machinery (aliases, sorted Names, spec resolution) is the generic
// internal/spec registry; only the Builder shape is lock-specific.
type Registration = spec.Registration[Builder]

var registry = spec.NewRegistry[Builder]("lock", "lock")

// Register adds a lock implementation to the registry. It panics on an
// empty name, a nil builder, or a name/alias collision — registration is
// an init-time act and a collision is a programming error.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("lock: Register with empty name or nil builder")
	}
	registry.Register(r)
}

// Names returns the sorted canonical names of every registered lock.
func Names() []string { return registry.Names() }

// Lookup resolves a name or alias to its Registration.
func Lookup(name string) (Registration, bool) { return registry.Lookup(name) }

// New builds a lock from a spec string. A spec is a registered name,
// optionally followed by URL-style parameters:
//
//	"mcscr-stp"
//	"mcscr-stp?fairness=500&seed=42"
//	"loiter?patience=16&arrivals=8&stats=false"
//
// Parameters (each maps onto the corresponding Option):
//
//	fairness=N   Bernoulli promotion period (0 disables)     WithFairnessPeriod
//	seed=N       lock-local PRNG seed                        WithSeed
//	patience=N   LOITER standby impatience threshold         WithPatience
//	arrivals=N   LOITER bounded arrival attempts             WithArrivalSpins
//	stats=BOOL   event-counter maintenance                   WithStats
//
// Spec parameters are applied after opts, so the spec overrides
// programmatic defaults. Every lock New can build satisfies ContextMutex
// (and Instrumented, though WithStats(false) makes snapshots zero).
// Malformed specs — unknown name, unknown or duplicated parameter, bad
// value — return a descriptive error and a nil Mutex.
func New(spec string, opts ...Option) (Mutex, error) {
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
func MustNew(spec string, opts ...Option) Mutex {
	m, err := New(spec, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// grammar is the lock parameter table (see New's doc comment for the
// key-by-key meaning). The generic machinery rejects unknown and
// duplicated parameters and wraps each parser's error with the spec, key,
// and offending value.
var grammar = spec.NewGrammar[Option]("lock", map[string]spec.ParamFunc[Option]{
	"fairness": func(v string) (Option, error) {
		n, err := spec.Uint(v)
		if err != nil {
			return nil, err
		}
		return WithFairnessPeriod(n), nil
	},
	"seed": func(v string) (Option, error) {
		n, err := spec.Uint(v)
		if err != nil {
			return nil, err
		}
		return WithSeed(n), nil
	},
	"patience": func(v string) (Option, error) {
		n, err := spec.PosInt(v)
		if err != nil {
			return nil, err
		}
		return WithPatience(n), nil
	},
	"arrivals": func(v string) (Option, error) {
		n, err := spec.PosInt(v)
		if err != nil {
			return nil, err
		}
		return WithArrivalSpins(n), nil
	},
	"stats": func(v string) (Option, error) {
		b, err := spec.Bool(v)
		if err != nil {
			return nil, err
		}
		return WithStats(b), nil
	},
})
