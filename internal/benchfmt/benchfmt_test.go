package benchfmt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSONAppendPromotion pins the accumulation contract: a fresh
// write is a single document, the first append promotes it to a
// two-element array, later appends extend the array, and a corrupt
// existing file fails loudly instead of being overwritten.
func TestWriteJSONAppendPromotion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rec := func(keys int) Record {
		return Record{Keys: keys, Results: []Result{{Dist: "zipf", Ops: keys}}}
	}

	if err := WriteJSON(path, rec(1), false); err != nil {
		t.Fatal(err)
	}
	var single Record
	mustParse(t, path, &single)
	if single.Keys != 1 {
		t.Fatalf("single doc keys = %d", single.Keys)
	}

	if err := WriteJSON(path, rec(2), true); err != nil {
		t.Fatal(err)
	}
	var arr []Record
	mustParse(t, path, &arr)
	if len(arr) != 2 || arr[0].Keys != 1 || arr[1].Keys != 2 {
		t.Fatalf("promotion: %+v", arr)
	}

	if err := WriteJSON(path, rec(3), true); err != nil {
		t.Fatal(err)
	}
	mustParse(t, path, &arr)
	if len(arr) != 3 || arr[2].Keys != 3 {
		t.Fatalf("extension: %+v", arr)
	}

	// Append to an empty file degrades to a plain write.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(empty, rec(9), true); err != nil {
		t.Fatal(err)
	}
	mustParse(t, empty, &single)
	if single.Keys != 9 {
		t.Fatalf("empty-file append: %+v", single)
	}

	// Corrupt existing content must error, not be clobbered.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(bad, rec(1), true); err == nil {
		t.Fatal("append over corrupt JSON did not error")
	}
}

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

func mustParse(t *testing.T, path string, into any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, into); err != nil {
		t.Fatalf("%s: %v\n%s", path, err, buf)
	}
}
