package policy

import "testing"

// New is run at vet time by the speclit analyzer over every constant
// policy spec in the module; it must be total and deterministic.
func FuzzNew(f *testing.F) {
	f.Add("static")
	f.Add("scanaware?scanfrac=0.3&to=rbtree")
	f.Add("scanaware?hold=3&scanfrac=0.25")
	f.Add("slo")
	f.Add("scanaware")
	f.Add("malthusain")
	f.Add("static?bogus=1")
	f.Add("scanaware?scanfrac=0.1&scanfrac=0.2")
	f.Add(" STATIC ")
	f.Fuzz(func(t *testing.T, s string) {
		p1, err1 := New(s)
		p2, err2 := New(s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("New(%q) is nondeterministic: %v vs %v", s, err1, err2)
		}
		if err1 != nil {
			if p1 != nil {
				t.Fatalf("New(%q) returned both a policy and an error %v", s, err1)
			}
			return
		}
		if p1 == nil || p2 == nil {
			t.Fatalf("New(%q) succeeded with a nil policy", s)
		}
	})
}
