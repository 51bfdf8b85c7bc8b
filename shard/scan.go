package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
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
// ranges accordingly, or use ScanChunked to bound the buffering. Like
// every multi-stripe read the result is per-stripe consistent, not a
// point-in-time snapshot.
func (m *Map) Scan(lo, hi uint64, fn func(key, val uint64) bool) error {
	_, err := m.scanChunkedStripes(nil, lo, hi, unbounded, fn)
	return err
}

// ScanContext is Scan with every stripe acquisition bounded by ctx; it
// returns ctx.Err() from the first stripe whose lock could not be taken
// in time (fn then sees no pairs at all — the merge happens after every
// stripe has been visited).
func (m *Map) ScanContext(ctx context.Context, lo, hi uint64, fn func(key, val uint64) bool) error {
	_, err := m.scanChunkedStripes(ctx, lo, hi, unbounded, fn)
	return err
}

// unbounded is the chunk size that makes a chunked scan a Scan: no stripe
// is ever truncated, so the first round collects every match — each
// stripe locked once, copied out whole — and the one merge yields them
// all.
const unbounded = math.MaxInt

// Ordered reports whether the map's backend maintains key order, i.e.
// whether Scan and ScanChunked can serve range queries. It is fixed at
// New.
func (m *Map) Ordered() bool { return m.ordered }

// mergeRuns k-way merges the sorted, key-disjoint runs and feeds the
// pairs to fn in ascending key order; it reports whether the merge ran
// to completion (false: fn stopped it early). Every key lives in exactly
// one stripe, so no tie-breaking is needed. A binary heap over the run
// heads keeps the merge O(N log S) for S runs.
func mergeRuns(runs [][]kv, fn func(key, val uint64) bool) bool {
	h := make([]int, 0, len(runs)) // heap of run indices, keyed by head key
	pos := make([]int, len(runs))
	for i := range runs {
		if len(runs[i]) > 0 {
			h = append(h, i)
		}
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
	for len(h) > 0 {
		run := h[0]
		p := runs[run][pos[run]]
		if !fn(p.key, p.val) {
			return false
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
	return true
}

// ScanChunked is Scan with bounded buffering: instead of copying every
// matching pair out of every stripe before the merge, it collects at
// most chunk pairs per stripe per round, merges and yields the globally
// safe prefix, and repeats from where each stripe left off. Memory is
// O(chunk × stripes) regardless of how many pairs [lo, hi] holds, so a
// full-domain scan of a huge map no longer materializes the whole map.
//
// fn still sees pairs in ascending global key order with no lock held
// (it may call back into the Map), and a false return still stops the
// scan. The trade is consistency: where Scan reads each stripe once,
// ScanChunked re-locks each stripe once per round, so the *guaranteed*
// view of a stripe is consistent per chunk, not per scan — a pair
// deleted after its chunk was copied may still be yielded, a pair
// inserted behind a stripe's cursor is missed, and two chunks of the
// same stripe may bracket a writer. Keys never yielded out of order and
// never yielded twice: rounds emit disjoint, ascending key intervals.
// Pairs that are never touched during the scan are yielded exactly
// once, as in Scan.
//
// The guarantee is certified, not just documented: every refill records
// the stripe's seqlock stamp (stripe.seq, maintained by all write
// paths on every backend), and ScanChunkedStats reports how many
// stripes' stamps moved between refills. TornStripes == 0 upgrades the
// guarantee to per-stripe point-in-time: each stripe's portion of the
// output is then a snapshot of that stripe at a single instant — Scan's
// consistency at ScanChunked's bounded memory — leaving only
// cross-stripe skew, which Scan has too. A nonzero TornStripes says
// exactly how many stripes a writer touched mid-scan.
//
// Like Scan, the map's backend must be ordered; otherwise ErrUnordered,
// before anything is yielded. chunk must be >= 1.
func (m *Map) ScanChunked(lo, hi uint64, chunk int, fn func(key, val uint64) bool) error {
	_, err := m.scanChunkedStripes(nil, lo, hi, chunk, fn)
	return err
}

// ScanChunkedContext is ScanChunked with every stripe acquisition
// bounded by ctx; it returns ctx.Err() from the first refill whose
// stripe lock could not be taken in time (pairs already yielded stay
// yielded).
func (m *Map) ScanChunkedContext(ctx context.Context, lo, hi uint64, chunk int, fn func(key, val uint64) bool) error {
	_, err := m.scanChunkedStripes(ctx, lo, hi, chunk, fn)
	return err
}

// ScanStats reports what a chunked scan's stamp certification observed.
type ScanStats struct {
	// Rounds is how many refill-and-merge rounds the scan ran (1 when
	// every stripe fit in one chunk — the scan then equals a Scan).
	Rounds int
	// TornStripes is the number of stripes whose seqlock stamp moved
	// between two of their refills: stripes whose portion of the output
	// may mix versions.
	// 0 certifies per-stripe point-in-time consistency for the whole
	// scan.
	TornStripes int
}

// ScanChunkedStats is ScanChunkedContext, additionally reporting the
// scan's certification: how many rounds it took and whether any
// stripe's stamp moved between that stripe's refills. Callers that need
// a consistent bounded-memory scan retry while TornStripes > 0 (or
// shrink the key range; a quiescent or read-mostly map certifies on the
// first try).
func (m *Map) ScanChunkedStats(ctx context.Context, lo, hi uint64, chunk int, fn func(key, val uint64) bool) (ScanStats, error) {
	return m.scanChunkedStripes(ctx, lo, hi, chunk, fn)
}

// chunkCursor is one stripe's progress through a chunked scan.
type chunkCursor struct {
	buf []kv // collected, not yet yielded; ascending, keys <= bound
	// arr is the stripe's reusable backing array, grown by append to at
	// most chunk pairs (never preallocated: chunk is a bound, and under
	// Scan or a wire client's max it is far above what a stripe holds). A
	// refill only happens once buf has fully drained (and the previous
	// round's merge — the only other reader of slices into arr — has
	// completed), so arr can be re-filled in place without reallocating.
	arr []kv
	// bound is the key up to which this stripe is known complete: every
	// key the stripe held in [lo, bound] at collection time is in (or
	// has passed through) buf.
	bound uint64
	// next is where the stripe's next refill resumes.
	next uint64
	// exhausted: the last refill reached hi; nothing left to collect.
	exhausted bool

	// Stamp certification: stamp is the stripe's seqlock stamp at the
	// latest refill (read under the stripe lock, so it is always even).
	// filled gates the first comparison; torn is set when a later refill
	// finds it changed — a write section intervened, so this stripe's
	// chunks may bracket a writer.
	stamp  uint64
	filled bool
	torn   bool
}

func (m *Map) scanChunkedStripes(ctx context.Context, lo, hi uint64, chunk int, fn func(key, val uint64) bool) (ScanStats, error) {
	var stats ScanStats
	if chunk < 1 {
		return stats, fmt.Errorf("shard: ScanChunked chunk %d, want >= 1", chunk)
	}
	if !m.ordered {
		return stats, fmt.Errorf("%w: backend spec %q has no Scan (known ordered backends implement store.Ordered)",
			ErrUnordered, m.cfgBackend)
	}
	cursors := make([]chunkCursor, len(m.stripes))
	for i := range cursors {
		cursors[i].next = lo
	}
	emit := make([][]kv, 0, len(m.stripes))
	// One collector serves every refill: a closure per stripe per round
	// would heap-allocate itself and both variables it captures each time.
	var run []kv
	var truncated bool
	collect := func(k, v uint64) bool {
		if len(run) == chunk {
			truncated = true
			return false
		}
		run = append(run, kv{k, v})
		return true
	}
	for {
		// Refill every drained, unexhausted stripe: up to chunk pairs
		// from its cursor, each under its own (current) stripe lock.
		refilled := 0
		for i := range cursors {
			c := &cursors[i]
			if len(c.buf) > 0 || c.exhausted {
				continue
			}
			refilled++
			s := &m.stripes[i]
			if err := s.lock(ctx); err != nil {
				return stats, err
			}
			// Certify: under the lock the stamp is stable (even); if it
			// moved since this stripe's last refill, a write section fell
			// between the chunks.
			if st := s.seq.Stamp(); c.filled && st != c.stamp {
				c.torn = true
			} else {
				c.stamp, c.filled = st, true
			}
			truncated, run = false, c.arr[:0] // refill the reusable backing array in place
			s.ordered.Scan(c.next, hi, collect)
			s.mu.Unlock()
			c.buf, c.arr = run, run
			if truncated {
				// More keys remain in (run[chunk-1].key, hi] — so that
				// last key is < hi and the cursor bump cannot overflow.
				c.bound = run[chunk-1].key
				c.next = c.bound + 1
			} else {
				c.bound = hi
				c.exhausted = true
			}
		}
		if refilled > 0 {
			stats.Rounds++
		}
		// The globally safe prefix ends at the smallest per-stripe
		// bound: beyond it, some truncated stripe may still hold keys
		// we have not collected.
		bound := hi
		for i := range cursors {
			if cursors[i].bound < bound {
				bound = cursors[i].bound
			}
		}
		// Merge and yield every buffered pair with key <= bound; keep
		// the rest for later rounds. The stripe(s) that set the bound
		// drain completely and refill next round, so the bound strictly
		// advances — termination is guaranteed.
		emit = emit[:0]
		done := true
		for i := range cursors {
			c := &cursors[i]
			cut := sort.Search(len(c.buf), func(j int) bool { return c.buf[j].key > bound })
			if cut > 0 {
				emit = append(emit, c.buf[:cut])
			}
			c.buf = c.buf[cut:]
			if len(c.buf) > 0 || !c.exhausted {
				done = false
			}
		}
		if !mergeRuns(emit, fn) || done {
			for i := range cursors {
				if cursors[i].torn {
					stats.TornStripes++
				}
			}
			return stats, nil
		}
	}
}
