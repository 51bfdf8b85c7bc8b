//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host a record was measured on. Numbers
// from different hosts are not comparable, so -compare refuses them.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is what was measured, not where: it is expected to differ
	// between the two sides of a comparison.
	Commit string `json:"commit"`
}

func hostFingerprint(root string) fingerprint {
	f := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // a checkout without git history stays "unknown"
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

// sameHost reports whether two records may be compared.
func (f fingerprint) sameHost(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

// record is one invocation's results: what -compare reads and what
// history.jsonl accumulates, one line per invocation.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	When        string      `json:"when"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	// Runs has one entry per -repeat: workload → end-to-end metric → the
	// run's value (median of segments) with its quartiles.
	Runs []map[string]map[string]stat `json:"runs"`
	// PerLayer is keyed by workload for the traced runs' own metrics
	// and by "ladder" for the rest.
	PerLayer map[string]map[string]stat `json:"per_layer"`
	// Claim is always null: the change that defines or extends the
	// benchmark claims no gain.
	Claim *string `json:"claim"`
}

// save writes the record to dir/last.json and appends it to
// dir/history.jsonl.
func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "last.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

// side reduces one record's runs of one workload × metric to a stat.
// With several runs it is the spread between runs that counts; a single
// run can only offer the spread between its own segments.
func (r *record) side(workload, metric string) (stat, bool) {
	if len(r.Runs) == 1 {
		s, ok := r.Runs[0][workload][metric]
		return s, ok
	}
	var medians []float64
	for _, run := range r.Runs {
		s, ok := run[workload][metric]
		if !ok {
			return stat{}, false
		}
		medians = append(medians, s.Median)
	}
	return summarize(medians), true
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge applies a metric's bound. A pair whose own run-to-run spread
// exceeds the bound is unresolved — the runs cannot tell a change of
// that size from noise — never "unchanged".
func judge(m metricSpec, before, after stat) string {
	if before.spread() > m.Bound || after.spread() > m.Bound {
		return verdictUnresolved
	}
	worse := (after.Median - before.Median) / before.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return verdictRegression
	case worse < -m.Bound:
		return verdictBetter
	}
	return verdictOK
}

// compareFiles prints one row per workload × end-to-end metric and
// returns exit code 1 if any row regressed, 2 if the records are not
// comparable.
func compareFiles(out io.Writer, cat *catalog, oldPath, newPath string) (int, error) {
	before, err := loadRecord(oldPath)
	if err != nil {
		return 2, err
	}
	after, err := loadRecord(newPath)
	if err != nil {
		return 2, err
	}
	if !before.Fingerprint.sameHost(after.Fingerprint) {
		return 2, fmt.Errorf("refusing to compare different hosts:\n  %s: %+v\n  %s: %+v",
			oldPath, before.Fingerprint, newPath, after.Fingerprint)
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "old %s (%d runs)  new %s (%d runs)\n", before.Fingerprint.Commit, len(before.Runs),
		after.Fingerprint.Commit, len(after.Runs))
	fmt.Fprintf(w, "%-18s %-18s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "old", "spread", "new", "spread", "change", "bound", "verdict")
	regressed := false
	for _, wl := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			o, ok1 := before.side(wl.Name, m.Name)
			n, ok2 := after.side(wl.Name, m.Name)
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-18s %-18s %s\n", wl.Name, m.Name, verdictMissing)
				continue
			}
			v := judge(m, o, n)
			regressed = regressed || v == verdictRegression
			fmt.Fprintf(w, "%-18s %-18s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%% %5.1f%%  %s\n",
				wl.Name, m.Name, o.Median, 100*o.spread(), n.Median, 100*n.spread(),
				100*(n.Median-o.Median)/o.Median, 100*m.Bound, v)
		}
	}
	if err := w.Flush(); err != nil {
		return 1, err
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}
