package server

import (
	"strings"
	"testing"
	"time"

	"repro/shard"
)

// TestInfoIdentityUnderStall: INFO's identity lines come from the map's
// construction, not from a snapshot, so a stripe held by a stalled
// critical section — longer than INFO's snapshot timeout — costs the
// reply its counter lines but not the backend and lock it reports.
func TestInfoIdentityUnderStall(t *testing.T) {
	s, err := New(Config{Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.armFault("stall?p=1&hold=500ms"); err != nil {
		t.Fatal(err)
	}
	defer s.disarmFault()

	held := make(chan struct{})
	go func() {
		defer close(held)
		s.m.Put(1, 1)
	}()
	for !strings.Contains(string(s.faultStats()), "\nstalls=1\n") {
		time.Sleep(time.Millisecond)
	}
	info := string(s.info())
	<-held

	for _, line := range []string{"\nbackend=hashmap\n", "\nlock=" + shard.DefaultLockSpec + "\n"} {
		if !strings.Contains(info, line) {
			t.Errorf("INFO during a stall lacks %q:\n%s", strings.TrimSpace(line), info)
		}
	}
}
