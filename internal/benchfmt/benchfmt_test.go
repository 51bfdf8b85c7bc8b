package benchfmt

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSchemaTags pins the JSON keys CI's validators read.
func TestSchemaTags(t *testing.T) {
	r := Result{Dist: "zipf", Lock: "tas", Backend: "hashmap", Stripes: 4, Threads: 2,
		DeadlineAttempts: 10, DeadlineMisses: 2, MissRate: 0.2,
		Chaos: &ChaosResult{Fault: "stall", RecoveryMillis: -1}}
	buf, err := json.Marshal(Record{Results: []Result{r}, Remote: &Remote{Addr: "x", Conns: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"results"`, `"dist"`, `"lock"`, `"backend"`, `"stripes"`, `"threads"`,
		`"duration_sec"`, `"ops"`, `"ops_per_sec"`, `"p50_us"`, `"p99_us"`,
		`"deadline_attempts"`, `"deadline_misses"`, `"miss_rate"`,
		`"chaos"`, `"fault"`, `"recovery_ms"`, `"remote"`, `"addr"`, `"conns"`,
	} {
		if !bytes.Contains(buf, []byte(key)) {
			t.Fatalf("marshalled record missing %s:\n%s", key, buf)
		}
	}
}

func TestPercentileAndRate(t *testing.T) {
	if got := PercentileMicros(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile = %g", got)
	}
	ns := []int64{1000, 2000, 3000, 4000, 5000}
	if got := PercentileMicros(ns, 0.5); got != 3 {
		t.Fatalf("p50 = %g, want 3", got)
	}
	if got := Rate(0, 0); got != 0 {
		t.Fatalf("0/0 rate = %g", got)
	}
	if got := Rate(1, 4); got != 0.25 {
		t.Fatalf("rate = %g", got)
	}
}
