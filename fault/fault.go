// Package fault implements injectable faults for the sharded store: the
// pathological conditions "Malthusian Locks" (EuroSys 2017) argues an
// admission policy must survive — critical-section stalls, thread-count
// surges (the paper's overthreading collapse), and hot-key skew storms —
// reproducible on demand instead of waited for.
//
// It is the third consumer of the internal/spec registry machinery,
// after locks and backends: each fault self-registers from its
// own file's init, and consumers select one with a spec string. Faults
// compose with "+", so a chaos timeline is itself one spec:
//
//	f, err := fault.New("stall?p=0.5&hold=2ms")
//	f, err := fault.New("surge?threads=32&after=1s&for=2s")
//	f := fault.MustNew("stall?p=1&hold=1ms&stripe=3+hotkey?frac=0.8&after=500ms")
//
// Every fault takes an activation window: after=D delays onset and for=D
// bounds duration, both measured from Arm (a Set that is never armed
// injects nothing — construction is side-effect free). The zero window
// is "always", so a bare "stall?p=1&hold=1ms" storms from Arm to Disarm.
//
// A Set is the composition: it implements every injection hook, fanning
// each to the faults that care. The hooks are consumed at two layers:
//
//   - InCS is the data-plane hook — shard.Map calls it inside a stripe's
//     critical section on every point operation that takes the stripe
//     lock when an injector is installed (Map.SetInjector), so a stall
//     lengthens the critical section exactly where the paper's convoy
//     dynamics punish it. A Get served lock-free has no critical section
//     and never calls it.
//   - Key and ExtraThreads are harness hooks — the load generator
//     (internal/loadgen, from a locally parsed Set even when the map is
//     behind shardd) reroutes keys through Key for skew storms and sizes
//     a surge pool by ExtraThreads; neither the map nor the server ever
//     calls them.
//
// All hooks are safe for concurrent use and cheap while no fault is in
// its window (an atomic load and a clock read). Stats reports what was
// actually injected, so a chaos run can assert its faults fired.
package fault

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/spec"
)

// Defaults for fault parameters.
const (
	// DefaultStallHold is the critical-section stall length when a
	// "stall" spec omits hold=.
	DefaultStallHold = time.Millisecond
	// DefaultSurgeThreads is the extra worker count when a "surge" spec
	// omits threads=.
	DefaultSurgeThreads = 16
	// DefaultHotKey is the key "hotkey" reroutes traffic to when the
	// spec omits key=.
	DefaultHotKey = 0
)

// Fault is one injectable pathology. Implementations embed window for
// the after=/for= activation gate and count what they inject; hooks they
// do not participate in are no-ops (a surge never stalls a critical
// section). All methods must be safe for concurrent use.
type Fault interface {
	// InCS runs inside stripe's critical section (the data-plane hook).
	InCS(stripe int)
	// Key possibly rewrites a request's key (the skew-storm hook).
	Key(key uint64) uint64
	// ExtraThreads reports how many surplus workers the harness should
	// run right now (the overthreading hook); 0 when inactive.
	ExtraThreads() int
	// active reports whether the fault is inside its window. The Set
	// uses it for Active; arm starts the window clock.
	active() bool
	arm()
	disarm()
	// stats folds this fault's injection counters into s.
	stats(s *Stats)
}

// Stats counts what a Set actually injected — the evidence a chaos run
// asserts on (a fault that never fired proves nothing).
type Stats struct {
	// Stalls is the number of critical-section stalls injected, and
	// StallTime their summed length.
	Stalls    uint64
	StallTime time.Duration
	// Reroutes is the number of requests redirected to the hot key.
	Reroutes uint64
	// SurgePeak is the widest surplus worker count any surge requested.
	SurgePeak int
}

// Total is the total number of injected events: the "did anything
// actually fire" scalar for smoke assertions.
func (s Stats) Total() uint64 { return s.Stalls + s.Reroutes + uint64(s.SurgePeak) }

// Set is a composition of faults built from a "+"-joined spec. The zero
// value injects nothing; construct with New. A Set satisfies the
// shard.Injector contract (InCS) and the harness hooks (Key,
// ExtraThreads) at once, so one value wires a whole timeline.
type Set struct {
	faults []Fault
	specs  []string
	armed  atomic.Bool
}

// window is the shared activation gate: a fault is active between
// after and after+dur (dur 0 = unbounded) measured from arm time. The
// zero window is active whenever armed.
type window struct {
	after, dur time.Duration
	start      atomic.Int64 // arm time, ns; 0 = disarmed
}

func (w *window) arm()    { w.start.Store(time.Now().UnixNano()) }
func (w *window) disarm() { w.start.Store(0) }

func (w *window) active() bool {
	start := w.start.Load()
	if start == 0 {
		return false
	}
	el := time.Duration(time.Now().UnixNano() - start)
	if el < w.after {
		return false
	}
	return w.dur == 0 || el < w.after+w.dur
}

// New builds a fault set from a spec: one or more registered fault names,
// each with optional URL-style parameters, joined with "+":
//
//	"stall?p=0.5&hold=2ms"
//	"surge?threads=32&after=1s&for=2s"
//	"stall?p=1&hold=1ms&stripe=3+hotkey?frac=0.8&after=500ms"
//
// Parameters common to every fault:
//
//	after=D   activation delay from Arm (default 0: immediate)
//	for=D     active duration (default 0: until Disarm)
//
// Per-fault parameters are documented on the fault (stall: p=, hold=,
// stripe=; surge: threads=; hotkey: frac=, key=). Malformed specs —
// unknown name, unknown or duplicated parameter, bad value, an empty "+"
// segment — return a descriptive error and a nil Set.
func New(s string) (*Set, error) {
	parts := strings.Split(s, "+")
	set := &Set{}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("fault: empty fault in composed spec %q", s)
		}
		reg, query, err := registry.Resolve(part)
		if err != nil {
			return nil, err
		}
		f, err := reg.Build(part, query)
		if err != nil {
			return nil, err
		}
		set.faults = append(set.faults, f)
		set.specs = append(set.specs, part)
	}
	return set, nil
}

// MustNew is New for tests and initialization paths where a malformed
// spec is a programming error; it panics instead of returning one.
func MustNew(s string) *Set {
	set, err := New(s)
	if err != nil {
		panic(err)
	}
	return set
}

// Arm starts every fault's activation clock: after= and for= windows
// measure from now. Arming an armed set restarts the clocks.
func (s *Set) Arm() {
	for _, f := range s.faults {
		f.arm()
	}
	s.armed.Store(true)
}

// Disarm stops all injection immediately, whatever the windows say.
// A disarmed set can be re-armed.
func (s *Set) Disarm() {
	for _, f := range s.faults {
		f.disarm()
	}
	s.armed.Store(false)
}

// Active reports whether any fault is currently inside its activation
// window — the phase signal a chaos harness samples to split a run into
// pre-fault, fault, and recovery.
func (s *Set) Active() bool {
	if s == nil || !s.armed.Load() {
		return false
	}
	for _, f := range s.faults {
		if f.active() {
			return true
		}
	}
	return false
}

// InCS fans the critical-section hook to every fault. It satisfies the
// shard.Injector contract; install with Map.SetInjector.
//
//lockcheck:cs
func (s *Set) InCS(stripe int) {
	for _, f := range s.faults {
		f.InCS(stripe)
	}
}

// Key routes a request's key through every fault's rewrite in spec
// order (in practice at most one hotkey rewrites it).
func (s *Set) Key(key uint64) uint64 {
	for _, f := range s.faults {
		key = f.Key(key)
	}
	return key
}

// ExtraThreads reports the surplus worker count the harness should run
// right now: the widest of the active surges.
func (s *Set) ExtraThreads() int {
	n := 0
	for _, f := range s.faults {
		if t := f.ExtraThreads(); t > n {
			n = t
		}
	}
	return n
}

// Stats folds every fault's injection counters into one report.
func (s *Set) Stats() Stats {
	var out Stats
	for _, f := range s.faults {
		f.stats(&out)
	}
	return out
}

// String returns the composed spec the set was built from.
func (s *Set) String() string { return strings.Join(s.specs, "+") }

// Builder constructs one fault from its full spec (for error messages)
// and its query string. Unlike the other families' builders it parses
// its own query: fault parameters are per-fault (a surge has no p=), so
// there is no shared option type for a package-level grammar to produce.
type Builder func(fullSpec, query string) (Fault, error)

// Registration describes one fault implementation to the registry; the
// machinery is the same generic internal/spec registry the lock and
// backend families use.
type Registration = spec.Registration[Builder]

var registry = spec.NewRegistry[Builder]("fault", "fault")

// Register adds a fault implementation to the registry. It panics on an
// empty name, a nil builder, or a name/alias collision — registration is
// an init-time act and a collision is a programming error.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("fault: Register with empty name or nil builder")
	}
	registry.Register(r)
}

// Names returns the sorted canonical names of every registered fault.
func Names() []string { return registry.Names() }

// Lookup resolves a name or alias to its Registration.
func Lookup(name string) (Registration, bool) { return registry.Lookup(name) }
