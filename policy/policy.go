// Package policy defines the adaptation policies behind shard.Map's
// control plane, mirroring the lock and backend registries' design: each
// policy self-registers from its own file's init, and consumers select
// one with a spec string resolved by New — so the *adaptation* policy of
// a sharded service is runtime configuration, exactly like the storage
// policy it adapts:
//
//	p, err := policy.New("static")
//	p := policy.MustNew("scanaware?scanfrac=0.3&to=skiplist")
//
// A policy implements shard.Policy: a Decide function the controller
// (shard.StartController) calls once per stripe per interval with the
// stripe's previous and current snapshots. Policies may be stateful —
// Decide runs on a single goroutine, so hysteresis counters and
// remembered original specs need no synchronization — and they fail
// safe: a target spec the map rejects leaves the stripe untouched
// (Map.Reconfigure validates before quiescing). A policy picks backends
// only: a stripe keeps the lock shard.New built for it, and a culling
// lock restricts concurrency under a convoy by itself.
//
// This registry is the third consumer of the internal/spec machinery,
// after locks and backends: same grammar, same error contract, same
// self-registration rule. Target-spec parameters whose values themselves
// contain spec syntax ("to=skiplist?seed=7") must be URL-escaped
// ("to=skiplist%3Fseed%3D7"), since the policy spec is itself a URL
// query.
package policy

import (
	"fmt"

	"repro/internal/spec"
	"repro/shard"
	"repro/store"
)

// Policy is the decision contract a controller drives; it is exactly
// shard.Policy (aliased so this package's registry speaks the interface
// the shard controller consumes without an import cycle).
type Policy = shard.Policy

// Defaults for the built-in policies' parameters.
const (
	// DefaultHold is how many consecutive intervals a signal must
	// persist before "scanaware" acts on it — the hysteresis that keeps a
	// borderline stripe from flapping between specs.
	DefaultHold = 2
	// DefaultScanFrac is the scan share of traffic at or above which
	// "scanaware" flips a stripe to an ordered backend.
	DefaultScanFrac = 0.5
	// DefaultOrderedSpec is the ordered backend spec "scanaware" flips a
	// scan-dominated stripe to.
	DefaultOrderedSpec = "skiplist"
)

// config carries the construction parameters the built-in policies
// understand. A policy reads what applies to it and ignores the rest —
// the same contract the lock and backend options follow.
type config struct {
	hold     int
	scanFrac float64
	ordered  string
}

// Option configures policy construction. The only options are the spec
// parameters New parses (see grammar): policies are configured by spec
// string everywhere in the module.
type Option func(*config)

func resolve(opts []Option) config {
	cfg := config{
		hold:     DefaultHold,
		scanFrac: DefaultScanFrac,
		ordered:  DefaultOrderedSpec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Builder constructs a policy from construction options.
type Builder func(opts ...Option) Policy

// Registration describes one policy implementation to the registry; the
// machinery is the same generic internal/spec registry the lock and
// backend families use.
type Registration = spec.Registration[Builder]

var registry = spec.NewRegistry[Builder]("policy", "policy")

// Register adds a policy implementation to the registry. It panics on an
// empty name, a nil builder, or a name/alias collision — registration is
// an init-time act and a collision is a programming error.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("policy: Register with empty name or nil builder")
	}
	registry.Register(r)
}

// Names returns the sorted canonical names of every registered policy.
func Names() []string { return registry.Names() }

// Lookup resolves a name or alias to its Registration.
func Lookup(name string) (Registration, bool) { return registry.Lookup(name) }

// New builds a policy from a spec string: a registered name, optionally
// followed by URL-style parameters:
//
//	"static"
//	"scanaware?scanfrac=0.3&to=rbtree"
//
// Parameters (a policy reads what applies to it and ignores the rest):
//
//	hold=N        "scanaware" hysteresis depth in intervals, both directions (>= 1)
//	scanfrac=F    scan share at which "scanaware" flips, 0..1 (0 disables:
//	              a zero threshold would read every interval as hot and calm)
//	to=SPEC       ordered backend spec "scanaware" flips to (URL-escaped)
//
// to= is validated against the backend registry at parse time, so a typo
// fails here rather than silently never swapping. Malformed specs
// — unknown name, unknown or duplicated parameter, bad value — return a
// descriptive error and a nil Policy.
func New(spec string) (Policy, error) {
	reg, query, err := registry.Resolve(spec)
	if err != nil {
		return nil, err
	}
	opts, err := grammar.Parse(spec, query)
	if err != nil {
		return nil, err
	}
	return reg.Build(opts...), nil
}

// MustNew is New for tests, examples, and initialization paths where a
// malformed spec is a programming error; it panics instead of returning
// one.
func MustNew(spec string) Policy {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// param is one grammar entry: parse the value (range checks are the
// parser's), then set it on the config.
func param[T any](parse func(string) (T, error), set func(*config, T)) spec.ParamFunc[Option] {
	return func(v string) (Option, error) {
		x, err := parse(v)
		if err != nil {
			return nil, err
		}
		return func(c *config) { set(c, x) }, nil
	}
}

var grammar = spec.NewGrammar[Option]("policy", map[string]spec.ParamFunc[Option]{
	"hold":     param(spec.PosInt, func(c *config, n int) { c.hold = n }),
	"scanfrac": param(spec.Frac, func(c *config, f float64) { c.scanFrac = f }),
	"to":       param(orderedBackendSpec, func(c *config, v string) { c.ordered = v }),
})

// orderedBackendSpec validates a flip target by building (and
// discarding) the backend now.
func orderedBackendSpec(v string) (string, error) {
	b, err := store.New(v)
	if err != nil {
		return "", err
	}
	if _, ok := b.(store.Ordered); !ok {
		return "", fmt.Errorf("backend spec %q is not ordered (scans need store.Ordered)", v)
	}
	return v, nil
}
