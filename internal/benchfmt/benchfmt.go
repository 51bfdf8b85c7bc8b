// Package benchfmt is the JSON cell schema cmd/shardload writes with
// -json. It is a contract — CI's python validators parse it — so it is
// typed here rather than built from literals in the command.
//
// The zero-value rule throughout: rates are 0 (never NaN — encoding/json
// rejects NaN), omitempty fields vanish when a cell did not exercise
// that dimension, and RecoveryMillis is -1 for "never recovered".
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Result is one benchmark cell: a (dist, lock, backend, stripes,
// threads) point with its throughput, latency and deadline
// columns.
type Result struct {
	Dist     string  `json:"dist"`
	Lock     string  `json:"lock"`
	Backend  string  `json:"backend"`
	Stripes  int     `json:"stripes"`
	Threads  int     `json:"threads"`
	Duration float64 `json:"duration_sec"`

	// ReadPath is the Get path the cell ran ("locked" or
	// "optimistic[?retries=N]"); omitted by emitters that predate the
	// dimension, which is the same as "locked".
	ReadPath string `json:"read_path,omitempty"`

	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Scans     int     `json:"scans,omitempty"`

	// ScansRejected counts scan requests refused with ErrUnordered:
	// scans sent to a server whose backend is unordered.
	ScansRejected int `json:"scans_rejected,omitempty"`

	// Latency percentiles over completed requests, in microseconds,
	// measured from (scheduled) arrival to completion.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`

	// Deadline traffic: requests that carried one, how many missed (the
	// stripe was not reached in time), and the miss rate. MissRate is 0
	// when no request carried a deadline.
	DeadlineAttempts int     `json:"deadline_attempts,omitempty"`
	DeadlineMisses   int     `json:"deadline_misses,omitempty"`
	MissRate         float64 `json:"miss_rate,omitempty"`

	// Optimistic read-path outcomes for the cell's interval (zero, and
	// omitted, on the locked path): hits are Gets served without a
	// stripe-lock acquire, fallbacks the ones whose retry budget ran
	// out. HitRate is hits/(hits+fallbacks), FallbackRate the
	// complement; both 0 (never NaN) when the path saw no traffic.
	// loadgen.Result.Fill takes them from the difference of two INFO
	// reads.
	OptimisticHits         int     `json:"optimistic_hits,omitempty"`
	OptimisticRetries      int     `json:"optimistic_retries,omitempty"`
	OptimisticFallbacks    int     `json:"optimistic_fallbacks,omitempty"`
	OptimisticHitRate      float64 `json:"optimistic_hit_rate,omitempty"`
	OptimisticFallbackRate float64 `json:"optimistic_fallback_rate,omitempty"`

	// Stats is the rolled-up CR event counters across all stripe locks.
	Stats map[string]uint64 `json:"stats,omitempty"`

	// Chaos carries the scripted-fault phases when the cell ran under a
	// fault; nil otherwise.
	Chaos *ChaosResult `json:"chaos,omitempty"`
}

// OptimisticLine is the report line shardload prints under a cell
// that served optimistic reads; "" for a cell that served none.
func (r Result) OptimisticLine() string {
	if r.OptimisticHits == 0 && r.OptimisticFallbacks == 0 {
		return ""
	}
	return fmt.Sprintf("optimistic: hits=%d retries=%d fallbacks=%d hit-rate=%.4f lock-acquires=%d",
		r.OptimisticHits, r.OptimisticRetries, r.OptimisticFallbacks, r.OptimisticHitRate, r.Stats["acquires"])
}

// ChaosResult is one cell's scripted-fault accounting: the deadline
// traffic split at the Arm/Disarm boundaries, time-to-recovery measured
// from fault onset, and the injected-fault evidence (a chaos run whose
// faults never fired proves nothing).
type ChaosResult struct {
	Fault string `json:"fault"`

	// Deadline traffic per phase: before Arm, between Arm and Disarm,
	// and after Disarm. Rates are 0 when the phase saw no deadline
	// traffic (never NaN).
	PreAttempts   int     `json:"pre_attempts"`
	PreMisses     int     `json:"pre_misses"`
	PreMissRate   float64 `json:"pre_miss_rate"`
	FaultAttempts int     `json:"fault_attempts"`
	FaultMisses   int     `json:"fault_misses"`
	FaultMissRate float64 `json:"fault_miss_rate"`
	PostAttempts  int     `json:"post_attempts"`
	PostMisses    int     `json:"post_misses"`
	PostMissRate  float64 `json:"post_miss_rate"`

	// RecoveryMillis is the time from fault onset (Arm) until the
	// trailing per-sample miss rate first held at or below the target
	// for three consecutive samples; -1 if the cell never recovered. A
	// frozen (static) cell can only recover after Disarm; an adaptive
	// one can recover mid-fault — this column is the difference, in ms.
	RecoveryMillis float64 `json:"recovery_ms"`

	// What the fault set actually injected during the cell.
	Stalls      uint64  `json:"stalls,omitempty"`
	StallMillis float64 `json:"stall_ms,omitempty"`
	Reroutes    uint64  `json:"reroutes,omitempty"`
	SurgePeak   int     `json:"surge_peak,omitempty"`
}

// Record is the top-level JSON document: the workload parameters shared
// by every cell in the run, plus the cells.
type Record struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Keys       int     `json:"keys"`
	ReadFrac   float64 `json:"read_frac"`
	ScanFrac   float64 `json:"scan_frac,omitempty"`
	ScanSpan   int     `json:"scan_span,omitempty"`
	ZipfS      float64 `json:"zipf_s"`
	Rate       float64 `json:"rate,omitempty"`
	Deadline   string  `json:"deadline,omitempty"`

	// Chaos timeline parameters, present when a fault is configured.
	Fault       string  `json:"fault,omitempty"`
	FaultAfter  string  `json:"fault_after,omitempty"`
	FaultFor    string  `json:"fault_for,omitempty"`
	FaultSample string  `json:"fault_sample,omitempty"`
	FaultTarget float64 `json:"fault_target,omitempty"`

	// Remote describes the serving side the cells were driven at.
	Remote *Remote `json:"remote,omitempty"`

	Results []Result `json:"results"`
}

// Remote describes the server side of a run: where the requests went
// and over how many connections.
type Remote struct {
	Addr  string `json:"addr"`
	Conns int    `json:"conns"`
	// Churn is the connection churn cadence ("0s" = stable connections).
	Churn string `json:"churn,omitempty"`
}

// WriteJSON writes rec to path.
func WriteJSON(path string, rec Record) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// PercentileMicros returns the q-quantile of ns (nanosecond samples) in
// microseconds, using the nearest-rank estimate. It sorts ns in place.
func PercentileMicros(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := int(q*float64(len(ns)-1) + 0.5)
	return float64(ns[idx]) / 1e3
}

// Rate returns misses/attempts, 0 when attempts is 0 — the everywhere
// rule that keeps NaN out of the JSON.
func Rate(misses, attempts int) float64 {
	if attempts == 0 {
		return 0
	}
	return float64(misses) / float64(attempts)
}
