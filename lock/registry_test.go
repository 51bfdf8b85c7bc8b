package lock

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// knownLocks is the canonical name set: the names lockbench, the
// benchmarks, and the examples rely on resolving.
var knownLocks = []string{
	"clh", "lifocr", "loiter", "mcs-stp",
	"mcscr-stp", "null", "tas", "ticket",
}

// TestRegistryNames pins the canonical name set.
func TestRegistryNames(t *testing.T) {
	want := knownLocks
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestRegistryRoundTrip: every canonical name must build, satisfy
// ContextMutex and Instrumented, and actually provide a working
// Lock/Unlock. The Names() slice is the single source of truth.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m, err := New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if _, ok := m.(ContextMutex); !ok {
				t.Fatalf("New(%q) does not satisfy ContextMutex", name)
			}
			if _, ok := m.(Instrumented); !ok && name != "null" {
				t.Fatalf("New(%q) does not satisfy Instrumented", name)
			}
			m.Lock()
			m.Unlock()
			if !m.TryLock() {
				t.Fatal("TryLock on fresh lock failed")
			}
			m.Unlock()
		})
	}
}

func TestRegistryAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"mcs": "mcs-stp", "mcscr": "mcscr-stp", "ttas": "tas",
		"MCSCR": "mcscr-stp", " tas ": "tas", // case/space insensitive
	} {
		r, ok := Lookup(alias)
		if !ok {
			t.Fatalf("Lookup(%q) failed", alias)
		}
		if r.Name != canonical {
			t.Fatalf("Lookup(%q).Name = %q, want %q", alias, r.Name, canonical)
		}
	}
}

// TestSpecParameters verifies that spec parameters reach the lock's
// configuration and that they override programmatic options.
func TestSpecParameters(t *testing.T) {
	m := MustNew("mcscr-stp?fairness=500&seed=42")
	l, ok := m.(*MCSCR)
	if !ok {
		t.Fatalf("spec built %T, want *MCSCR", m)
	}
	if *l.trial != *core.NewTrial(500, 42) {
		t.Fatal("spec params did not reach the fairness trial")
	}

	// Spec overrides programmatic options.
	m = MustNew("mcscr-stp?fairness=7", WithFairnessPeriod(1000))
	if *m.(*MCSCR).trial != *core.NewTrial(7, 0) {
		t.Fatal("spec did not override option: want fairness=7")
	}

	// stats=false yields zero snapshots.
	s := MustNew("tas?stats=false").(*TAS)
	s.Lock()
	s.Unlock()
	if s.Stats().Acquires != 0 {
		t.Fatal("stats=false still counted")
	}

	// LOITER knobs parse.
	lo := MustNew("loiter?patience=3&arrivals=2").(*LOITER)
	if lo.cfg.patience != 3 || lo.cfg.arrivalSpins != 2 {
		t.Fatalf("loiter knobs not applied: %+v", lo.cfg)
	}
}

func TestSpecErrors(t *testing.T) {
	for spec, wantSub := range map[string]string{
		"nosuch":              "unknown lock",
		"":                    "unknown lock",
		"mcs-s":               "unknown lock", // the "-S" shape is simulator-only
		"mcscr-s?seed=1":      "unknown lock",
		"mcs-stp?bogus=1":     "unknown parameter",
		"mcscr-stp?spin=64":   "unknown parameter",
		"clh?wait=s":          "unknown parameter",
		"mcscr-stp?wait=stp":  "unknown parameter",
		"mcs-stp?fairness=-1": "bad value",
		"loiter?patience=0":   "bad value",
		"loiter?arrivals=0":   "bad value",
		"tas?stats=perhaps":   "bad value",
		"tas?seed=1&seed=2":   "given 2 times",
		"tas?seed=%zz":        "malformed parameters",
	} {
		m, err := New(spec)
		if err == nil {
			t.Errorf("New(%q) accepted a malformed spec (built %T)", spec, m)
			continue
		}
		if m != nil {
			t.Errorf("New(%q) returned non-nil Mutex alongside error", spec)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("New(%q) error %q does not mention %q", spec, err, wantSub)
		}
	}
	// The unknown-name error must list the known names (discoverability).
	_, err := New("mcs-s")
	if want := "(known locks: " + strings.Join(knownLocks, ", ") + ")"; !strings.Contains(err.Error(), want) {
		t.Fatalf("unknown-lock error %q does not list %q", err, want)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew of a malformed spec did not panic")
		}
	}()
	//lockcheck:ignore exercising the MustNew panic path with a malformed spec
	MustNew("definitely-not-a-lock")
}

func TestRegisterCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Registration{Name: "tas", Build: func(...Option) Mutex { return NewTAS() }})
}
