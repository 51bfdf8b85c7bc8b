package optimistic

import "testing"

func TestParseReadPath(t *testing.T) {
	cases := []struct {
		spec string
		want ReadPath
	}{
		{"", ReadPath{Optimistic: true}},
		{" ", ReadPath{Optimistic: true}},
		{"locked", ReadPath{}},
		{" Locked ", ReadPath{}},
		{"optimistic", ReadPath{Optimistic: true}},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// Canonical strings round-trip.
		back, err := Parse(got.String())
		if err != nil || back != got {
			t.Fatalf("Parse(%q.String()=%q) = %+v, %v", c.spec, got.String(), back, err)
		}
	}
}

func TestParseReadPathErrors(t *testing.T) {
	for _, spec := range []string{
		"turbo",
		"?retries=3",
		"?",
		"locked?retries=3",
		"optimistic?",
		"optimistic?bogus=1",
		"SeqLock", // names fold case, and the read paths have no aliases
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestSeqProtocol(t *testing.T) {
	var s Seq
	stamp, ok := s.ReadBegin()
	if !ok || stamp != 0 {
		t.Fatalf("zero Seq ReadBegin = %d, %v; want 0, true", stamp, ok)
	}
	if !s.Validate(stamp) {
		t.Fatal("unmodified Seq must validate")
	}

	s.WriteBegin()
	if _, ok := s.ReadBegin(); ok {
		t.Fatal("ReadBegin during a write section must report unstable")
	}
	if s.Validate(stamp) {
		t.Fatal("stamp from before a write section must not validate")
	}
	s.WriteEnd()

	stamp2, ok := s.ReadBegin()
	if !ok {
		t.Fatal("Seq must be stable after WriteEnd")
	}
	if stamp2 == stamp {
		t.Fatal("a completed write section must move the stamp")
	}
	// A writer that begins and ends entirely inside the reader's window
	// still fails validation: equality, not evenness.
	s.WriteBegin()
	s.WriteEnd()
	if s.Validate(stamp2) {
		t.Fatal("stamp must not validate across a complete write section")
	}
}

// TestEpochPinUnpinBalance: the pair the benchmark's pin_ns rung times
// counts a reader in and back out of one slot.
func TestEpochPinUnpinBalance(t *testing.T) {
	e := NewEpoch()
	pinned := func() (n int64) {
		for i := range e.slots {
			n += e.slots[i].c[0].Load() + e.slots[i].c[1].Load()
		}
		return n
	}
	h := e.Pin()
	if n := pinned(); n != 1 {
		t.Fatalf("pinned = %d after Pin, want 1", n)
	}
	h.Unpin()
	if n := pinned(); n != 0 {
		t.Fatalf("pinned = %d after Unpin, want 0", n)
	}
}
