package store

import (
	"strings"
	"testing"

	"repro/internal/hashmap"
	"repro/internal/skiplist"
)

// TestNames pins the canonical backend set: these are the names
// shard.Config.BackendSpec, shardd -backend, and the docs rely on
// resolving.
func TestNames(t *testing.T) {
	want := []string{"hashmap", "rbtree", "skiplist"}
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

// TestRoundTrip: every canonical name must build and serve a basic
// put/get/delete; every Registration must carry a Summary (the -list
// consumer renders it).
func TestRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			reg, ok := Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
			if reg.Summary == "" {
				t.Fatalf("registered backend %q has no Summary", name)
			}
			b, err := New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if !b.Put(42, 1) {
				t.Fatal("Put of a fresh key reported existing")
			}
			if b.Put(42, 2) {
				t.Fatal("update reported new key")
			}
			if v, ok := b.Get(42); !ok || v != 2 {
				t.Fatalf("Get = %d,%v want 2,true", v, ok)
			}
			if b.Len() != 1 {
				t.Fatalf("Len = %d want 1", b.Len())
			}
			if !b.Delete(42) || b.Delete(42) {
				t.Fatal("Delete semantics wrong")
			}
		})
	}
}

// TestOrderedSet pins which backends serve the Ordered extension: order
// is the property shard.Scan is gated on.
func TestOrderedSet(t *testing.T) {
	for name, wantOrdered := range map[string]bool{
		"hashmap":  false,
		"skiplist": true,
		"rbtree":   true,
	} {
		b := MustNew(name)
		if _, ok := b.(Ordered); ok != wantOrdered {
			t.Errorf("%s: Ordered = %v, want %v", name, ok, wantOrdered)
		}
	}
}

func TestAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"hash": "hashmap", "skip": "skiplist", "rb": "rbtree", "tree": "rbtree",
		"HASHMAP": "hashmap", " rbtree ": "rbtree", // case/space insensitive
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

// TestSpecParameters verifies spec parameters reach construction and
// override programmatic options, the same contract lock.New documents.
func TestSpecParameters(t *testing.T) {
	// capacity pre-sizes the hash table.
	hm := MustNew("hashmap?capacity=1000").(*hashmap.Map)
	if hm.Slots() < 2000 {
		t.Fatalf("capacity=1000 pre-sized only %d slots", hm.Slots())
	}
	// Spec overrides the programmatic option.
	hm = MustNew("hashmap?capacity=1000", WithCapacity(1)).(*hashmap.Map)
	if hm.Slots() < 2000 {
		t.Fatalf("spec capacity did not override option: %d slots", hm.Slots())
	}
	// The builders hand back the internal structures directly — no
	// wrapper layer to pay for on the per-probe path.
	if _, ok := MustNew("skiplist?seed=7").(*skiplist.List); !ok {
		t.Fatal("skiplist spec did not build *skiplist.List")
	}
}

func TestSpecErrors(t *testing.T) {
	for spec, wantSub := range map[string]string{
		"nosuch":                 "unknown backend",
		"":                       "unknown backend",
		"hashmap?bogus=1":        "unknown parameter",
		"hashmap?capacity=abc":   "bad value",
		"hashmap?capacity=-1":    "bad value",
		"skiplist?seed=x":        "bad value",
		"skiplist?seed=1&seed=2": "given 2 times",
		"rbtree?seed=%zz":        "malformed parameters",
	} {
		b, err := New(spec)
		if err == nil {
			t.Errorf("New(%q) accepted a malformed spec (built %T)", spec, b)
			continue
		}
		if b != nil {
			t.Errorf("New(%q) returned non-nil Backend alongside error", spec)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("New(%q) error %q does not mention %q", spec, err, wantSub)
		}
	}
	// The unknown-name error must list the known names (discoverability).
	_, err := New("nosuch")
	if !strings.Contains(err.Error(), "skiplist") {
		t.Fatalf("unknown-backend error does not enumerate known backends: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew of a malformed spec did not panic")
		}
	}()
	//lockcheck:ignore exercising the MustNew panic path with a malformed spec
	MustNew("definitely-not-a-backend")
}

func TestRegisterCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Registration{Name: "hashmap", Build: func(...Option) Backend { return nil }})
}

func TestOptimisticReaderOptIn(t *testing.T) {
	// The opt-in surface is part of each backend's contract: hashmap's
	// slot array is atomically published, so it claims OptimisticReader;
	// the pointer-chasing ordered backends decline and keep the locked
	// path. A backend silently gaining or losing the interface changes
	// which read path its stripes serve, so pin it here.
	if _, ok := MustNew("hashmap").(OptimisticReader); !ok {
		t.Fatal("hashmap must implement OptimisticReader")
	}
	for _, name := range []string{"skiplist", "rbtree"} {
		if _, ok := MustNew(name).(OptimisticReader); ok {
			t.Fatalf("%s claims OptimisticReader but its traversal is not torn-read-safe", name)
		}
	}
}
