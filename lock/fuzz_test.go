package lock

import "testing"

// New is run at vet time by the speclit analyzer over every constant
// lock spec in the module; it must be total and deterministic so vet's
// verdict on a constant is production's verdict on the same string.
func FuzzNew(f *testing.F) {
	f.Add("mcs-stp")
	f.Add("mcscr-stp?fairness=500&seed=42&stats=false")
	f.Add("mcscr-spt")
	f.Add("mcs?fairness=0")
	f.Add("tas?spin=-1")
	f.Add("MCS-STP ")
	f.Add("mcs-stp?seed=1&seed=2")
	f.Add("mcs-stp?wait=%74rue")
	f.Add("?")
	f.Add("null?stats=false")
	f.Add("mcscr-stp?cr=true")
	f.Add("mcs-stp?cr=false&seed=3")
	f.Add("tas?cr=2")
	f.Add("null?cr=true&stats=false")
	f.Fuzz(func(t *testing.T, s string) {
		m1, err1 := New(s)
		m2, err2 := New(s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("New(%q) is nondeterministic: %v vs %v", s, err1, err2)
		}
		if err1 != nil {
			if m1 != nil {
				t.Fatalf("New(%q) returned both a lock and an error %v", s, err1)
			}
			return
		}
		if m1 == nil || m2 == nil {
			t.Fatalf("New(%q) succeeded with a nil mutex", s)
		}
		// An accepted lock must actually lock.
		m1.Lock()
		m1.Unlock()
	})
}
