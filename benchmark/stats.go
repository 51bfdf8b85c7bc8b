//go:build linux

package main

import (
	"math"
	"slices"
)

// stat is one reported value: the median of the per-segment (or per-run)
// values, with the quartiles and the sample count printed beside it.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// exact is a stat for a value that was computed once, not sampled.
func exact(v float64) stat { return stat{Median: v, Q1: v, Q3: v, N: 1} }

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), because
// that is what the driver computes spreads with: -compare must call a
// pair unresolved on the same evidence the driver would.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4 // outside [0,4] when j was clamped: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(vals []float64) stat {
	q1, q2, q3 := quartiles(vals)
	return stat{Median: q2, Q1: q1, Q3: q3, N: len(vals)}
}

// spread is the interquartile distance as a share of the median, the
// quantity every bound in BENCHMARK.json is compared against.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentile picks the tail percentile a sample of n latencies can
// support: the highest of the ladder with at least ten samples beyond
// it. Full-length segments always support p99; a smoke segment falls
// back rather than report the maximum under the name of a percentile.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// mergeSorted merges the workers' samples of one segment, ascending.
func mergeSorted(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]int64, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.Sort(all)
	return all
}

// us returns the p-th percentile of sorted nanosecond samples in
// microseconds.
func us(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }

// tailUS is us at the tail percentile the sample supports.
func tailUS(sorted []int64) float64 { return us(sorted, tailPercentile(len(sorted))) }
