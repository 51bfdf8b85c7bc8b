// Package policy defines the adaptation policies behind shard.Map's
// control plane, mirroring the lock and backend registries' design: each
// policy self-registers from its own file's init, and consumers select
// one with a spec string resolved by New — so the *adaptation* policy of
// a sharded service is runtime configuration, exactly like the admission
// and storage policies it adapts:
//
//	p, err := policy.New("static")
//	p, err := policy.New("slo?target=0.05&hot=mcscr-stp")
//	p := policy.MustNew("scanaware?scanfrac=0.3&to=skiplist")
//
// A policy implements shard.Policy: a Decide function the controller
// (shard.StartController) calls once per stripe per interval with the
// stripe's previous and current snapshots. Policies may be stateful —
// Decide runs on a single goroutine, so hysteresis counters and
// remembered original specs need no synchronization — and they fail
// safe: a target spec the map rejects leaves the stripe untouched
// (Map.Reconfigure validates before quiescing).
//
// This registry is the third consumer of the internal/spec machinery,
// after locks and backends: same grammar, same error contract, same
// self-registration rule. Target-spec parameters whose values themselves
// contain spec syntax ("hot=mcscr-stp?fairness=500") must be URL-escaped
// ("hot=mcscr-stp%3Ffairness%3D500"), since the policy spec is itself a
// URL query.
package policy

import (
	"fmt"

	"repro/internal/spec"
	"repro/lock"
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
	// DefaultHotLockSpec is the culling/passivating lock spec "slo"
	// demotes a stripe burning its deadline budget to.
	DefaultHotLockSpec = "mcscr-stp"
	// DefaultOrderedSpec is the ordered backend spec "scanaware" flips a
	// scan-dominated stripe to.
	DefaultOrderedSpec = "skiplist"
	// DefaultSLOTarget is the deadline-miss rate budget "slo" defends: the
	// fraction of deadline-bounded operations allowed to expire.
	DefaultSLOTarget = 0.05
	// DefaultSLOFast and DefaultSLOSlow are the "slo" policy's burn-rate
	// window lengths, in non-idle controller intervals. The fast window
	// bounds reaction time; the slow window vetoes transient spikes and,
	// after a demotion, holds the evidence that forces sustained calm
	// before a restore.
	DefaultSLOFast = 3
	DefaultSLOSlow = 12
	// DefaultSLOMinAttempts is the deadline-bounded traffic the "slo"
	// fast window must contain before the policy acts either way — a
	// near-idle stripe's one missed op is not a 100% burn rate.
	DefaultSLOMinAttempts = 8
)

// config carries the construction parameters the built-in policies
// understand. A policy reads what applies to it and ignores the rest —
// the same contract the lock and backend options follow.
type config struct {
	hold     int
	scanFrac float64
	hotLock  string
	ordered  string

	sloTarget float64
	sloFast   int
	sloSlow   int
	sloMin    uint64
}

// Option configures policy construction. The only options are the spec
// parameters New parses (see grammar): policies are configured by spec
// string everywhere in the module.
type Option func(*config)

func resolve(opts []Option) config {
	cfg := config{
		hold:      DefaultHold,
		scanFrac:  DefaultScanFrac,
		hotLock:   DefaultHotLockSpec,
		ordered:   DefaultOrderedSpec,
		sloTarget: DefaultSLOTarget,
		sloFast:   DefaultSLOFast,
		sloSlow:   DefaultSLOSlow,
		sloMin:    DefaultSLOMinAttempts,
	}
	for _, o := range opts {
		o(&cfg)
	}
	// The slow window bounds the fast one whatever order fast= and slow=
	// arrived in.
	if cfg.sloSlow < cfg.sloFast {
		cfg.sloSlow = cfg.sloFast
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
//	"slo?target=0.1&slow=40&hot=mcscr-stp"
//	"scanaware?scanfrac=0.3&to=rbtree"
//
// Parameters (a policy reads what applies to it and ignores the rest):
//
//	hold=N        "scanaware" hysteresis depth in intervals, both directions (>= 1)
//	scanfrac=F    scan share at which "scanaware" flips, 0..1 (0 disables:
//	              a zero threshold would read every interval as hot and calm)
//	hot=SPEC      lock spec "slo" demotes to (URL-escaped)
//	to=SPEC       ordered backend spec "scanaware" flips to (URL-escaped)
//	target=F      deadline-miss budget "slo" defends, 0..1 (0 disables)
//	fast=N        fast burn window, non-idle intervals: bounds reaction time
//	slow=N        slow burn window, vetoes spikes (raised to fast if shorter)
//	min=N         fast-window attempts floor before "slo" acts either way
//
// hot= and to= are validated against their registries at parse time, so
// a typo fails here rather than silently never swapping. Malformed specs
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
	"hot":      param(stripeLockSpec, func(c *config, v string) { c.hotLock = v }),
	"to":       param(orderedBackendSpec, func(c *config, v string) { c.ordered = v }),
	"target":   param(spec.Frac, func(c *config, f float64) { c.sloTarget = f }),
	// fast= and slow= each set only their own window; resolve re-clamps
	// slow >= fast after both land, so they compose in either order.
	"fast": param(spec.PosInt, func(c *config, n int) { c.sloFast = n }),
	"slow": param(spec.PosInt, func(c *config, n int) { c.sloSlow = n }),
	"min":  param(spec.Uint, func(c *config, n uint64) { c.sloMin = n }),
})

// stripeLockSpec validates a demotion target by building (and
// discarding) the lock now; registry locks are cheap to construct. The
// ContextMutex assertion mirrors shard.Map's own buildLock requirement,
// so a custom-registered plain lock fails here instead of silently never
// swapping at Reconfigure time.
func stripeLockSpec(v string) (string, error) {
	mtx, err := lock.New(v)
	if err != nil {
		return "", err
	}
	if _, ok := mtx.(lock.ContextMutex); !ok {
		return "", fmt.Errorf("lock spec %q builds a %T, which is not a lock.ContextMutex (required for shard stripes)", v, mtx)
	}
	return v, nil
}

// orderedBackendSpec validates a flip target the same way.
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
