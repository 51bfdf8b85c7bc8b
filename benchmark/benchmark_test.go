//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The quartiles must be Python's statistics.quantiles(v, n=4): these
// expectations were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	spec := streamSpec{
		n: 1 << 14, keys: 1 << 12, zipfS: 1.2,
		mix:     mix{get: 0.45, put: 0.40, del: 0.10, scan: 0.05},
		ctxFrac: 0.5, budgetLo: 1000, budgetHi: 3000, classes: 2,
		privFrac: 1.0 / 16, privN: 64,
	}
	a, b := genStream(7, 3, spec), genStream(7, 3, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and stream gave different requests")
	}
	if reflect.DeepEqual(a, genStream(8, 3, spec)) || reflect.DeepEqual(a, genStream(7, 4, spec)) {
		t.Fatal("a different seed or stream gave the same requests")
	}

	var kinds [4]int
	ctx, priv, hot := 0, 0, 0
	base := privBase(spec.keys, 3, spec.privN)
	for _, o := range a {
		kinds[o.kind]++
		if o.flags&flagCtx != 0 {
			ctx++
			if o.budgetUS < spec.budgetLo || o.budgetUS > spec.budgetHi {
				t.Fatalf("budget %d outside [%d,%d]", o.budgetUS, spec.budgetLo, spec.budgetHi)
			}
		}
		switch {
		case o.flags&flagPrivate != 0:
			priv++
			if o.key < base || o.key >= base+uint64(spec.privN) || o.kind == opScan {
				t.Fatalf("private op %+v outside worker 3's range [%d,%d)", o, base, base+uint64(spec.privN))
			}
		case o.key >= spec.keys:
			t.Fatalf("shared key %d outside [0,%d)", o.key, spec.keys)
		case o.key == rankKey(0, spec.keys):
			hot++
		}
		if o.class < 1 || o.class > spec.classes {
			t.Fatalf("class %d outside 1..%d", o.class, spec.classes)
		}
	}
	n := float64(len(a))
	for kind, want := range []float64{0.45, 0.40, 0.10, 0.05} {
		if got := float64(kinds[kind]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("kind %d: share %.3f, want %.2f", kind, got, want)
		}
	}
	if got := float64(ctx) / n; math.Abs(got-0.5) > 0.02 {
		t.Errorf("deadline share %.3f, want 0.5", got)
	}
	if got := float64(priv) / n; math.Abs(got-1.0/16) > 0.01 {
		t.Errorf("private share %.3f, want %.3f", got, 1.0/16)
	}
	// Zipf s=1.2: the hottest rank alone draws far more than a uniform
	// share of 1/4096.
	if got := float64(hot) / n; got < 0.1 {
		t.Errorf("hottest key drew %.3f of the requests; zipf s=1.2 gives about 0.2", got)
	}
}

func TestRankKeyIsABijection(t *testing.T) {
	const keys = 1 << 12
	seen := make([]bool, keys)
	for r := uint64(0); r < keys; r++ {
		k := rankKey(r, keys)
		if k >= keys || seen[k] {
			t.Fatalf("rank %d maps to %d: out of range or taken", r, k)
		}
		seen[k] = true
	}
	if k := uint64(12345); valKey(encodeVal(k, 99)) != k {
		t.Fatal("a value does not decode to its key")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, span = 8000.0, int64(2e9)
	a, b := poissonSchedule(5, rate, span), poissonSchedule(5, rate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(6, rate, span)) {
		t.Fatal("a different seed gave the same schedule")
	}
	want := rate * float64(span) / 1e9
	if got := float64(len(a)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals in %v ns at %v/s, want about %v", got, span, rate, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= span {
			t.Fatalf("arrival %d at %d: not ascending inside the span", i, a[i])
		}
	}
}

// The ladder's arithmetic: a self time is a rung minus the rungs beneath
// it, and the budget rows sum to the synchronous round trip.
func TestLadderSelfTimes(t *testing.T) {
	l := &ladder{vals: map[string]stat{}}
	for name, v := range map[string]float64{
		"lock.uncontended_ns": 50, "lock.ctx_uncontended_ns": 60, "store.hashmap.get_ns": 20,
		"shard.get_ns": 90, "shard.get_deadline_ns": 120,
		"wire.encode_req_ns": 18, "wire.decode_req_ns": 3, "wire.encode_resp_ns": 19, "wire.decode_resp_ns": 4,
		"server.pipelined_ping_ns": 300, "server.pipelined_get_deadline_ns": 2600,
		"server.sync_get_rtt_us":    30,
		"lock.mcscr-stp.ops_s.t16P": 1.2e6, "lock.mcs-stp.ops_s.t16P": 1e5,
	} {
		l.set(name, v)
	}
	l.derive()
	for name, want := range map[string]float64{
		"shard.self_get_ns":             20,   // 90 - 50 - 20
		"shard.self_deadline_ns":        30,   // 120 - 90
		"wire.codec_get_ns":             44,   // 18 + 3 + 19 + 4
		"server.dispatch_get_ns":        2300, // 2600 - 300
		"server.self_deadline_ns":       2136, // 2300 - 120 - 44
		"budget.get_deadline.store_ns":  20,
		"budget.get_deadline.lock_ns":   60,
		"budget.get_deadline.shard_ns":  40, // 120 - 60 - 20
		"budget.get_deadline.wire_ns":   44,
		"budget.get_deadline.server_ns": 2136,
		"budget.get_deadline.socket_ns": 27700, // 30000 - 20 - 60 - 40 - 44 - 2136
		"lock.cr_speedup":               12,
	} {
		if got := l.get(name); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	sum := 0.0
	for _, layer := range []string{"socket", "wire", "server", "shard", "lock", "store"} {
		sum += l.get("budget.get_deadline." + layer + "_ns")
	}
	if want := l.get("server.sync_get_rtt_us") * 1e3; math.Abs(sum-want) > 1e-6 {
		t.Errorf("budget rows sum to %v ns, the round trip is %v ns", sum, want)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) stat { return stat{Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 3} }
	noisy := func(v float64) stat { return stat{Median: v, Q1: v * 0.9, Q3: v * 1.1, N: 3} }
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		m        metricSpec
		old, new stat
		want     string
	}{
		{"latency up past the bound", lower, steady(100), steady(115), verdictRegression},
		{"latency up inside the bound", lower, steady(100), steady(108), verdictOK},
		{"latency down past the bound", lower, steady(100), steady(80), verdictBetter},
		{"throughput down past the bound", higher, steady(1000), steady(880), verdictRegression},
		{"throughput up past the bound", higher, steady(1000), steady(1200), verdictBetter},
		{"throughput flat", higher, steady(1000), steady(1000), verdictOK},
		{"old side too noisy to tell", lower, noisy(100), steady(150), verdictUnresolved},
		{"new side too noisy to tell", higher, steady(1000), noisy(1000), verdictUnresolved},
	} {
		if got := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	cat := &catalog{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.10}},
	}
	fp := fingerprint{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Commit: "aaa"}
	write := func(name string, fp fingerprint, ops ...float64) string {
		r := record{Fingerprint: fp}
		for _, v := range ops {
			r.Runs = append(r.Runs, map[string]map[string]stat{"w": {"ops_s": exact(v)}})
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", fp, 1000, 1005, 995)
	newer := fp
	newer.Commit = "bbb" // a different commit is the point of comparing

	var out bytes.Buffer
	code, err := compareFiles(&out, cat, base, write("same.json", newer, 1001, 999, 1003))
	if code != 0 || err != nil || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("flat runs: code %d, err %v, output:\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = compareFiles(&out, cat, base, write("slow.json", newer, 800, 805, 795))
	if code != 1 || err != nil || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("slower runs: code %d, err %v, output:\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = compareFiles(&out, cat, base, write("noisy.json", newer, 700, 1000, 1300))
	if code != 0 || err != nil || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("noisy runs: code %d, err %v, output:\n%s", code, err, out.String())
	}
	other := fp
	other.NumCPU = 64
	if code, err := compareFiles(&out, cat, base, write("other.json", other, 5000)); code != 2 || err == nil {
		t.Errorf("different hosts compared: code %d, err %v", code, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is the catalogue the program reads and the contract
// the driver checks before a single run.
func TestCatalogMeetsTheContract(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(top, k)
	}
	for k := range top {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}

	cat, err := loadCatalog(root)
	if err != nil {
		t.Fatal(err)
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", cat.RunSeconds)
	}
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, w := range cat.Workloads {
		name(w.Name)
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(cat.Workloads) != len(workloadFuncs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(cat.Workloads), len(workloadFuncs))
	}
	setup := false
	for _, m := range append(append([]metricSpec{}, cat.EndToEnd...), cat.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range cat.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range cat.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
}

// metricLine matches one printed metric: name, value, unit.
var metricLine = regexp.MustCompile(`(?m)^(\S+)\s+(-?[0-9.]+)\s+(\S+)\s+\[q1 `)

// TestSmoke runs the whole benchmark — five workloads untraced and
// traced, the spawned shardd included, and the ladder — at toy sizes
// and checks that every name in BENCHMARK.json is printed exactly once
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shardd and runs every workload")
	}
	results := t.TempDir()
	var out bytes.Buffer
	code, err := run([]string{"-smoke", "-results", results}, &out)
	if code != 0 || err != nil {
		t.Fatalf("smoke run: exit code %d, err %v\n%s", code, err, out.String())
	}
	printed := map[string][]string{}
	for _, m := range metricLine.FindAllStringSubmatch(out.String(), -1) {
		printed[m[1]] = append(printed[m[1]], m[3])
	}
	root, _ := moduleRoot()
	cat, err := loadCatalog(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, w := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			want[w.Name+"/"+m.Name] = m.Unit
		}
	}
	for _, m := range cat.PerLayer {
		if !workloadScoped[m.Name] {
			want[m.Name] = m.Unit
			continue
		}
		for _, w := range cat.Workloads {
			want[w.Name+"/"+m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		switch units := printed[name]; {
		case len(units) != 1:
			t.Errorf("%s printed %d times, want once", name, len(units))
		case units[0] != unit:
			t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", name, units[0], unit)
		}
	}
	for name := range printed {
		if _, ok := want[name]; !ok {
			t.Errorf("%s printed but not in BENCHMARK.json", name)
		}
	}
	if strings.Contains(out.String(), "CHECK FAILED") {
		t.Errorf("a correctness check failed:\n%s", out.String())
	}

	// The record carries the host fingerprint and claims nothing.
	rec, err := loadRecord(filepath.Join(results, "last.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Claim != nil || rec.Fingerprint.NumCPU == 0 || rec.Fingerprint.GoVersion == "" {
		t.Errorf("record fingerprint %+v, claim %v", rec.Fingerprint, rec.Claim)
	}
	if hist, err := os.ReadFile(filepath.Join(results, "history.jsonl")); err != nil || bytes.Count(hist, []byte("\n")) != 1 {
		t.Errorf("history.jsonl: %v, want exactly one line", err)
	}
	// The traced run wrote its spans out.
	for _, w := range cat.Workloads {
		b, err := os.ReadFile(filepath.Join(root, ".bench_build", "trace-"+w.Name+".jsonl"))
		if err != nil || bytes.Count(b, []byte("\n")) < 2 {
			t.Errorf("trace of %s: %v, want a header and spans", w.Name, err)
		}
	}
}

// TestDriverMode checks the one-workload form the driver runs: the last
// line of output is one JSON object with exactly the contract's keys
// and every end-to-end metric.
func TestDriverMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out bytes.Buffer
	code, err := run([]string{"-smoke", "--workload", "lock_oversub", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit code %d, err %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	var metrics map[string]value
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	root, _ := moduleRoot()
	cat, _ := loadCatalog(root)
	for _, m := range cat.EndToEnd {
		v, ok := metrics[m.Name]
		if !ok || v.Unit != m.Unit || v.Value == 0 {
			t.Errorf("metric %s: %+v (present %t), want a nonzero value in %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(metrics) != len(cat.EndToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(cat.EndToEnd))
	}
}
