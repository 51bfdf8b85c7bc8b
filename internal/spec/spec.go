// Package spec implements the registry-and-spec-grammar machinery shared
// by the module's pluggable families: the lock registry (package lock),
// the stripe-backend registry (package store) and the fault registry
// (package fault). A family exposes its
// implementations as self-registering names, and consumers select one
// with a spec string — a registered name optionally followed by URL-style
// parameters:
//
//	mcscr-stp?fairness=500&seed=42
//	skiplist?seed=7
//
// The package deliberately carries no domain knowledge. A Registry[B] is
// generic over the family's builder type B and handles name/alias
// resolution (case- and surrounding-space-insensitive), enumeration, and
// collision panics; a Grammar[O] is generic over the family's option type
// O and handles query parsing — duplicate-parameter rejection,
// deterministic error selection, per-key typed parsing — producing the
// descriptive errors both families promise ("unknown parameter … (valid:
// …)", "bad value … for …"). Error prefixes name the owning package and
// its noun ("lock: unknown lock …", "store: unknown backend …"), so a
// message still reads as coming from the family the user addressed.
package spec

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registration describes one implementation to a Registry. Each
// implementation file self-registers in its init, so the registry — not
// any consumer — is the single enumeration of names in the family.
type Registration[B any] struct {
	// Name is the canonical spec name, lower-case (e.g. "mcscr-stp").
	Name string
	// Aliases resolve in Lookup but are not listed by Names.
	Aliases []string
	// Summary is a one-line human description for -list style listings.
	Summary string
	// Build constructs the implementation. Its shape is the family's
	// business; the registry only stores it.
	Build B
}

// Registry resolves names and aliases to Registrations. The zero value is
// not usable; construct with NewRegistry.
type Registry[B any] struct {
	pkg, noun string

	mu        sync.RWMutex
	byName    map[string]Registration[B] // canonical names and aliases
	canonical []string                   // sorted canonical names
}

// NewRegistry returns an empty registry whose error messages are prefixed
// with pkg and describe entries as nouns (e.g. NewRegistry("lock", "lock"),
// NewRegistry("store", "backend")).
func NewRegistry[B any](pkg, noun string) *Registry[B] {
	return &Registry[B]{pkg: pkg, noun: noun, byName: make(map[string]Registration[B])}
}

// Register adds an implementation. It panics on an empty name or a
// name/alias collision — registration is an init-time act and a collision
// is a programming error. Validating the builder (e.g. non-nil) is the
// family's job, since B's zero value is not inspectable here.
func (r *Registry[B]) Register(reg Registration[B]) {
	if reg.Name == "" {
		panic(fmt.Sprintf("%s: Register with empty name", r.pkg))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range append([]string{reg.Name}, reg.Aliases...) {
		name = strings.ToLower(name)
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("%s: duplicate registration of %q", r.pkg, name))
		}
		r.byName[name] = reg
	}
	r.canonical = append(r.canonical, strings.ToLower(reg.Name))
	sort.Strings(r.canonical)
}

// Names returns the sorted canonical names of every registered entry.
func (r *Registry[B]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.canonical))
	copy(out, r.canonical)
	return out
}

// Lookup resolves a name or alias to its Registration.
func (r *Registry[B]) Lookup(name string) (Registration[B], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byName[strings.ToLower(strings.TrimSpace(name))]
	return reg, ok
}

// Resolve splits a spec into its name and optional query and resolves the
// name. The unknown-name error enumerates the known names, so a typo's
// error message doubles as discovery.
func (r *Registry[B]) Resolve(spec string) (reg Registration[B], query string, err error) {
	name, query, _ := strings.Cut(spec, "?")
	reg, ok := r.Lookup(name)
	if !ok {
		return reg, "", fmt.Errorf("%s: unknown %s %q in spec %q (known %s: %s)",
			r.pkg, r.noun, strings.TrimSpace(name), spec, plural(r.noun), strings.Join(r.Names(), ", "))
	}
	return reg, query, nil
}

// plural renders a family noun's plural for error messages: "lock" →
// "locks", "backend" → "backends", "policy" → "policies".
func plural(noun string) string {
	if strings.HasSuffix(noun, "y") {
		return noun[:len(noun)-1] + "ies"
	}
	return noun + "s"
}

// ParamFunc parses one parameter's value into a family option. The error
// needs no location context — Grammar.Parse wraps it with the spec, key,
// and offending value.
type ParamFunc[O any] func(value string) (O, error)

// Grammar is a family's parameter table: the valid keys and, per key, the
// typed parse into the family's option type.
type Grammar[O any] struct {
	pkg    string
	params map[string]ParamFunc[O]
	valid  string // sorted key enumeration, for error messages
}

// NewGrammar builds a grammar from a parameter table. Error messages are
// prefixed with pkg, matching the family's registry.
func NewGrammar[O any](pkg string, params map[string]ParamFunc[O]) *Grammar[O] {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return &Grammar[O]{pkg: pkg, params: params, valid: strings.Join(keys, ", ")}
}

// Parse parses a spec's query string ("key=val&key=val") into options.
// spec is the full original spec, quoted in errors so the user sees the
// string they actually wrote. Keys are processed in sorted order, so the
// error reported for a multiply-malformed spec is deterministic. A
// parameter given twice is rejected rather than silently last-wins.
func (g *Grammar[O]) Parse(spec, query string) ([]O, error) {
	if query == "" {
		return nil, nil
	}
	values, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("%s: spec %q: malformed parameters: %v", g.pkg, spec, err)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var opts []O
	for _, k := range keys {
		vs := values[k]
		if len(vs) > 1 {
			return nil, fmt.Errorf("%s: spec %q: parameter %q given %d times", g.pkg, spec, k, len(vs))
		}
		parse, ok := g.params[k]
		if !ok {
			return nil, fmt.Errorf("%s: spec %q: unknown parameter %q (valid: %s)",
				g.pkg, spec, k, g.valid)
		}
		opt, err := parse(vs[0])
		if err != nil {
			return nil, fmt.Errorf("%s: spec %q: bad value %q for %q: %v", g.pkg, spec, vs[0], k, err)
		}
		opts = append(opts, opt)
	}
	return opts, nil
}

// Valid returns the sorted comma-separated parameter keys (for docs and
// -list output).
func (g *Grammar[O]) Valid() string { return g.valid }

// Typed value parsers shared by the families' parameter tables, so "bad
// value" errors read the same whichever registry produced them.

// Uint parses a base-10 uint64.
func Uint(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) }

// NonNegInt parses an int >= 0.
func NonNegInt(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative integer")
	}
	return n, nil
}

// PosInt parses an int >= 1.
func PosInt(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("want a positive integer")
	}
	return n, nil
}

// Bool parses a strconv-style boolean.
func Bool(v string) (bool, error) { return strconv.ParseBool(v) }

// Dur parses a non-negative time.Duration ("1ms", "2s", "500us").
// Negative durations are rejected: every duration parameter in the
// module's families (fault windows, stall holds) is a length of time,
// and a negative length silently disabling a fault would make a typo'd
// chaos run read as a clean pass.
func Dur(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("want a duration like 1ms or 2s")
	}
	if d < 0 {
		return 0, fmt.Errorf("want a non-negative duration")
	}
	return d, nil
}

// Frac parses a float in [0, 1] (a fraction of traffic, a probability).
// NaN and out-of-range values are rejected with the same error, so a
// family's "bad value" message stays self-explanatory.
func Frac(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || f < 0 || f > 1 {
		return 0, fmt.Errorf("want a fraction in [0, 1]")
	}
	return f, nil
}
