package shard

import (
	"context"
	"fmt"
	"math"
)

// Scan calls fn for every key/value pair with lo <= key <= hi, in
// ascending global key order, until fn returns false. Bounds are
// inclusive, so the full domain is Scan(0, ^uint64(0), fn).
//
// Scan requires the map's backend to be ordered (a store.Ordered
// implementation: "skiplist", "rbtree"); otherwise it returns
// ErrUnordered without visiting anything. Keys are hash-routed,
// so every stripe holds an arbitrary subset of [lo, hi]: each stripe's
// matches are copied out under that stripe's lock (one stripe at a time,
// like Range), then merged across stripes into global key order before
// fn sees the first pair. fn therefore runs with no lock held and may
// call back into the Map, but a Scan buffers all matching pairs — size
// ranges accordingly, or use ScanFirst to bound the buffering. Like
// every multi-stripe read the result is per-stripe consistent, not a
// point-in-time snapshot.
func (m *Map) Scan(lo, hi uint64, fn func(key, val uint64) bool) error {
	return m.scan(nil, lo, hi, math.MaxInt, fn)
}

// ScanContext is Scan with every stripe acquisition bounded by ctx; it
// returns ctx.Err() from the first stripe whose lock could not be taken
// in time (fn then sees no pairs at all — the merge happens after every
// stripe has been visited).
func (m *Map) ScanContext(ctx context.Context, lo, hi uint64, fn func(key, val uint64) bool) error {
	return m.scan(ctx, lo, hi, math.MaxInt, fn)
}

// ScanFirst is ScanContext bounded to the first n pairs of [lo, hi]:
// each stripe copies out at most n matches under its lock, and fn sees
// at most n pairs. The prefix is exact, not sampled: fewer than n keys
// of [lo, hi] precede any of the first n, so each of them is among its
// own stripe's first n. Memory and lock hold time are O(n) per stripe
// however many pairs [lo, hi] holds. n must be >= 1.
func (m *Map) ScanFirst(ctx context.Context, lo, hi uint64, n int, fn func(key, val uint64) bool) error {
	if n < 1 {
		return fmt.Errorf("shard: ScanFirst n %d, want >= 1", n)
	}
	return m.scan(ctx, lo, hi, n, fn)
}

// Ordered reports whether the map's backend maintains key order, i.e.
// whether Scan and its bounded forms can serve range queries. It is
// fixed at New.
func (m *Map) Ordered() bool { return m.ordered }

// scan is the one body of every scan: one pass over the stripes, each
// locked once to copy out at most limit matches, then one merge that
// yields at most limit pairs.
func (m *Map) scan(ctx context.Context, lo, hi uint64, limit int, fn func(key, val uint64) bool) error {
	if !m.ordered {
		return fmt.Errorf("%w: backend spec %q has no Scan (known ordered backends implement store.Ordered)",
			ErrUnordered, m.cfgBackend)
	}
	runs := make([][]kv, 0, len(m.stripes))
	// One collector serves every stripe: a closure per stripe would
	// heap-allocate itself and the variables it captures each time. Each
	// stripe's run grows by append from nil (never preallocated: limit is
	// a bound, and under Scan or a wire client's max it is far above what
	// a stripe holds).
	var run []kv
	collect := func(k, v uint64) bool {
		run = append(run, kv{k, v})
		return len(run) < limit
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		if err := s.lock(ctx); err != nil {
			return err
		}
		run = nil
		s.ordered.Scan(lo, hi, collect)
		s.mu.Unlock()
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	mergeRuns(runs, limit, fn)
	return nil
}

// mergeRuns k-way merges the non-empty, sorted, key-disjoint runs and
// feeds at most limit pairs to fn in ascending key order, until fn
// returns false. Every key lives in exactly one stripe, so no
// tie-breaking is needed. A binary heap over the run heads keeps the
// merge O(N log S) for S runs.
func mergeRuns(runs [][]kv, limit int, fn func(key, val uint64) bool) {
	h := make([]int, len(runs)) // heap of run indices, keyed by head key
	pos := make([]int, len(runs))
	for i := range h {
		h[i] = i
	}
	headKey := func(i int) uint64 { return runs[h[i]][pos[h[i]]].key }
	less := func(i, j int) bool { return headKey(i) < headKey(j) }
	var siftDown func(i int)
	siftDown = func(i int) {
		for {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(h) && less(l, min) {
				min = l
			}
			if r < len(h) && less(r, min) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for ; len(h) > 0 && limit > 0; limit-- {
		run := h[0]
		p := runs[run][pos[run]]
		if !fn(p.key, p.val) {
			return
		}
		pos[run]++
		if pos[run] == len(runs[run]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(0)
		}
	}
}
