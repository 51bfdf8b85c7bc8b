//go:build linux

package main

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"repro/lock"
	"repro/metrics"
	"repro/shard"
)

// latEvery is the in-process latency sampling stride: one op in 32 is
// timed, so two clock reads do not become the workload when a Get takes
// a tenth of a microsecond, and the samples of a segment stay a few
// megabytes.
const latEvery = 32

// spanBatch is how many sub-microsecond calls one traced span covers.
const spanBatch = 1024

// histCap is the admission-history window the fairness instruments are
// computed over, the same order as lockbench's.
const histCap = 1 << 20

var spinSink atomic.Uint64

// spin is lockbench's unit of synthetic work.
func spin(n int) {
	s := spinSink.Load()
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	spinSink.Store(s)
}

// oversub is the state lock_oversub's critical section guards.
type oversub struct {
	m lock.Mutex
	// counter is deliberately plain: it equals the number of
	// acquisitions only if the lock excludes.
	counter uint64
	// cur records admissions; when it fills, the recorders swap, so
	// prev always holds the last full window and recording costs the
	// same on every acquisition.
	cur, prev *metrics.Recorder
}

func newOversub(seed uint64) *oversub {
	return &oversub{
		m:    lock.MustNew("mcscr-stp", lock.WithSeed(seed)),
		cur:  metrics.NewRecorder(histCap),
		prev: metrics.NewRecorder(histCap),
	}
}

// admit is the critical section: count, record the admission, spin.
func (s *oversub) admit(id int) {
	s.counter++
	if s.cur.Len() == histCap {
		s.cur, s.prev = s.prev, s.cur
		s.cur.Reset()
	}
	s.cur.Record(id)
	spin(100)
}

// pass is one acquisition: lock, critical section, unlock.
func (s *oversub) pass(id int) {
	s.m.Lock()
	s.admit(id)
	s.m.Unlock()
}

// runLockOversub is the paper's own experiment: many more goroutines
// than CPUs circulating over one concurrency-restricting lock.
func runLockOversub(c *config, traced []bool) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	h := selfHost()
	// Building a lock takes microseconds, too little to time: the
	// warm-up pass is sixteen times the other workloads'.
	warmed := uint64(16 * c.warmOps)
	var s *oversub
	for i := 0; i < c.setups; i++ {
		t0 := time.Now()
		s = newOversub(c.seed)
		for j := uint64(0); j < warmed; j++ {
			s.pass(0)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	// The event rates and the fairness window describe the contended
	// run, not the single-goroutine warm-up pass.
	s.cur.Reset()
	s.prev.Reset()
	warm := s.m.(lock.Instrumented).Stats()

	e := newEngine(c.nseg, traced)
	segs, workers := e.run(16*c.nproc, 500*time.Microsecond, c.warm, c.segLen, h.cpu, func(w *worker) {
		for i := 0; ; i++ {
			a, tr := e.acc(w)
			if a == nil {
				return
			}
			spin(500)
			switch {
			case tr:
				t0 := time.Now()
				s.m.Lock()
				t1 := time.Now()
				s.admit(w.id)
				s.m.Unlock()
				t2 := time.Now()
				a.wait = append(a.wait, int64(t1.Sub(t0)))
				a.hold = append(a.hold, int64(t2.Sub(t1)))
				a.lat = append(a.lat, int64(t2.Sub(t0)))
				if i%spanBatch == 0 {
					req := uint64(w.id)<<32 | uint64(i)
					p := w.spans.add(span{"loadgen", "op", req, -1, sinceEpoch(t0), sinceEpoch(t2), 1})
					w.spans.add(span{"lock", "wait", req, p, sinceEpoch(t0), sinceEpoch(t1), 1})
					w.spans.add(span{"lock", "hold", req, p, sinceEpoch(t1), sinceEpoch(t2), 1})
				}
			case i%latEvery == 0:
				t0 := time.Now()
				s.pass(w.id)
				a.lat = append(a.lat, int64(time.Since(t0)))
			default:
				s.pass(w.id)
			}
			a.attempted++
		}
	})
	o.segs = segs
	o.peakRSS = h.peakRSSMB()

	// Mutual exclusion: the plain counter saw every acquisition, and the
	// lock's own striped counters agree.
	total := warmed
	for _, w := range workers {
		o.spans = append(o.spans, &w.spans)
		for i := range w.seg {
			total += w.seg[i].attempted
		}
	}
	st := s.m.(lock.Instrumented).Stats()
	if s.counter != total {
		o.failf("lock_oversub: shared counter %d != %d acquisitions (mutual exclusion broken)", s.counter, total)
	}
	if st.Acquires != total {
		o.failf("lock_oversub: Stats().Acquires %d != %d acquisitions", st.Acquires, total)
	}

	st = st.Sub(warm)
	kop := float64(st.Acquires) / 1e3
	o.layer["lock.parks_per_kop"] = float64(st.Parks) / kop
	o.layer["lock.handoffs_per_kop"] = float64(st.Handoffs) / kop
	o.layer["lock.culls_per_kop"] = float64(st.Culls) / kop
	o.layer["lock.cancels_per_kop"] = float64(st.Cancels) / kop
	o.layer["lock.fastpath_frac"] = float64(st.FastPath) / float64(st.Acquires)
	hist := s.prev.History() // the last full window, once there has been one
	if len(hist) == 0 {
		hist = s.cur.History()
	}
	sum := metrics.Summarize(hist, metrics.DefaultWindow)
	o.layer["lock.lwss"] = sum.AvgLWSS
	o.layer["lock.mttr"] = sum.MTTR
	o.layer["lock.gini"] = sum.Gini
	return o, nil
}

// mapSpec sizes one in-process shard.Map workload.
type mapSpec struct {
	cfg     shard.Config
	workers int
	stagger time.Duration
	stream  streamSpec
	// deadline is the budget of flagCtx ops. Zero means they share one
	// live context whose deadline never arrives during the run.
	deadline time.Duration
	// teams, when positive, is how many candidate worker teams try out
	// for the measurement (see pickTeam).
	teams int
}

func runMapReadZipf(c *config, traced []bool) (*outcome, error) {
	return runMap(c, traced, mapSpec{
		cfg:     shard.Config{Stripes: 16, BackendSpec: "hashmap", ReadPath: "optimistic", Seed: c.seed},
		workers: c.nproc,
		stream: streamSpec{
			n: c.streamLen, keys: c.keys, zipfS: 1.2,
			mix:     mix{get: 0.95, put: 0.05},
			ctxFrac: 0.5, privFrac: 1.0 / 16, privN: 4096,
		},
		teams: 8,
	})
}

func runMapHotWrite(c *config, traced []bool) (*outcome, error) {
	return runMap(c, traced, mapSpec{
		cfg:     shard.Config{Stripes: 2, BackendSpec: "skiplist", Seed: c.seed},
		workers: 8 * c.nproc,
		stagger: 500 * time.Microsecond,
		stream: streamSpec{
			n: c.streamLen / 4, keys: c.keys, zipfS: 1.2,
			mix:     mix{get: 0.45, put: 0.40, del: 0.10, scan: 0.05},
			ctxFrac: 0.5, privFrac: 1.0 / 16, privN: 4096,
		},
		deadline: 20 * time.Millisecond,
	})
}

// kvModel is one worker's exact model of its private keys: the value it
// last wrote, or 0 after a delete. Nobody else touches those keys, so
// every private Get must return exactly this.
type kvModel struct {
	base    uint64
	vals    []uint64
	version uint64
}

func newKVModel(keys uint64, w, privN int) *kvModel {
	return &kvModel{base: privBase(keys, w, privN), vals: make([]uint64, privN)}
}

// Outcomes of one operation.
const (
	stOK = iota
	stFailed
	stDeadline
)

// mapRunner executes pre-generated ops against an in-process Map and
// checks every result.
type mapRunner struct {
	m          *shard.Map
	keys       uint64
	hasDeletes bool
	deadline   time.Duration
	live       context.Context // the never-expiring deadline context
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// do runs one op. Half the ops take the *Context form; with a finite
// deadline each builds its own context, as a real caller would.
func (r *mapRunner) do(o op, kv *kvModel) int {
	ctx := context.Context(nil)
	if o.flags&flagCtx != 0 {
		ctx = r.live
		if r.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(context.Background(), r.deadline)
			defer cancel()
		}
	}
	private := o.flags&flagPrivate != 0
	switch o.kind {
	case opGet:
		var v uint64
		var ok bool
		if ctx != nil {
			var err error
			if v, ok, err = r.m.GetContext(ctx, o.key); err != nil {
				return errStatus(err)
			}
		} else {
			v, ok = r.m.Get(o.key)
		}
		switch {
		case private:
			if want := kv.vals[o.key-kv.base]; v != want || ok != (want != 0) {
				return stFailed // read-your-writes
			}
		case ok && valKey(v) != o.key:
			return stFailed // torn or misrouted
		case !ok && !r.hasDeletes:
			return stFailed // a preloaded key vanished
		}
	case opPut:
		kv.version++
		v := encodeVal(o.key, kv.version)
		if ctx != nil {
			if _, err := r.m.PutContext(ctx, o.key, v); err != nil {
				return errStatus(err)
			}
		} else {
			r.m.Put(o.key, v)
		}
		if private {
			kv.vals[o.key-kv.base] = v
		}
	case opDel:
		var present bool
		if ctx != nil {
			var err error
			if present, err = r.m.DeleteContext(ctx, o.key); err != nil {
				return errStatus(err)
			}
		} else {
			present = r.m.Delete(o.key)
		}
		if private {
			if present != (kv.vals[o.key-kv.base] != 0) {
				return stFailed
			}
			kv.vals[o.key-kv.base] = 0
		}
	case opScan:
		lo, hi := o.key, o.key+63
		prev, first, bad := uint64(0), true, false
		visit := func(k, v uint64) bool {
			if k < lo || k > hi || valKey(v) != k || (!first && k <= prev) {
				bad = true
			}
			prev, first = k, false
			return true
		}
		var err error
		if ctx != nil {
			err = r.m.ScanContext(ctx, lo, hi, visit)
		} else {
			err = r.m.Scan(lo, hi, visit)
		}
		if err != nil {
			return errStatus(err)
		}
		if bad {
			return stFailed
		}
	}
	return stOK
}

func errStatus(err error) int {
	if isDeadline(err) {
		return stDeadline
	}
	return stFailed
}

// count books one op's outcome into the segment accumulator.
func (a *segAcc) count(o op, st int) {
	a.attempted++
	if o.flags&flagCtx != 0 {
		a.dlAttempted++
	}
	switch st {
	case stFailed:
		a.failed++
	case stDeadline:
		a.dlMissed++
	}
}

func runMap(c *config, traced []bool, spec mapSpec) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	streams := make([][]op, spec.workers)
	for w := range streams {
		streams[w] = genStream(c.seed, w, spec.stream)
	}
	live, cancel := context.WithDeadline(context.Background(), time.Now().Add(24*time.Hour))
	defer cancel()

	var r *mapRunner
	var models []*kvModel
	h := selfHost()
	for i := 0; i < c.setups; i++ {
		// Each set-up starts from a collected heap, so the peak does not
		// depend on when the collector last ran. The memory stays with
		// the process: the second and third set-ups reuse it, and their
		// median times the work of setting up, not the hypervisor's page
		// faults, which drift by a quarter from one minute to the next.
		r = nil
		runtime.GC()
		t0 := time.Now()
		m, err := shard.New(spec.cfg)
		if err != nil {
			return nil, err
		}
		preload(c.keys, c.keys, func(k, v uint64) { m.Put(k, v) })
		r = &mapRunner{m: m, keys: c.keys, hasDeletes: spec.stream.mix.del > 0,
			deadline: spec.deadline, live: live}
		models = make([]*kvModel, spec.workers)
		for w := range models {
			models[w] = newKVModel(c.keys, w, spec.stream.privN)
		}
		for j := 0; j < c.warmOps; j++ {
			if r.do(streams[0][j%len(streams[0])], models[0]) == stFailed {
				o.failf("set-up %d: warm op %d failed its check", i, j)
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	before := r.m.Snapshot()

	body := func(e *engine) func(w *worker) {
		return func(w *worker) { mapWorker(c, e, w, r, streams[w.id], models[w.id]) }
	}
	e := newEngine(c.nseg, traced)
	if spec.teams > 0 {
		e.team = pickTeam(spec.teams, spec.workers, c.probe/20, body)
		defer e.team.dismiss()
	}
	segs, workers := e.run(spec.workers, spec.stagger, c.warm, c.segLen, h.cpu, body(e))
	o.segs = segs
	o.peakRSS = h.peakRSSMB()
	for _, w := range workers {
		o.spans = append(o.spans, &w.spans)
	}

	after := r.m.Snapshot()
	hits := float64(after.OptimisticHits - before.OptimisticHits)
	falls := float64(after.OptimisticFallbacks - before.OptimisticFallbacks)
	if reads := hits + falls; reads > 0 {
		o.layer["optimistic.hit_frac"] = hits / reads
		o.layer["optimistic.fallback_frac"] = falls / reads
		o.layer["optimistic.retries_per_kop"] = float64(after.OptimisticRetries-before.OptimisticRetries) / reads * 1e3
	}
	verifyMap(o, r, models)
	return o, nil
}

// pickTeam chooses the goroutines a two-basin workload is measured on.
// The map's epoch pin slots and the locks' stats stripes are selected by
// a hash of the caller's stack address: two reader goroutines land on
// the same cache line or on different ones by luck, and throughput
// differs by a third between the two cases — once per process, for its
// whole life. So several candidate teams, all parked at once and hence
// on different stacks, each run a short trial, and the fastest — the one
// whose members do not share a line — runs the measurement.
func pickTeam(candidates, workers int, trial time.Duration, body func(*engine) func(*worker)) team {
	teams := make([]team, candidates)
	for i := range teams {
		teams[i] = newTeam(workers)
	}
	best, bestOps := 0, 0.0
	for i, t := range teams {
		e := newEngine(1, nil)
		e.team = t
		segs, _ := e.run(workers, 0, trial/4, trial, noCPU, body(e))
		if ops := float64(segs[0].attempted) / segs[0].wall.Seconds(); ops > bestOps {
			best, bestOps = i, ops
		}
	}
	for i, t := range teams {
		if i != best {
			t.dismiss()
		}
	}
	return teams[best]
}

// mapWorker is one worker's loop over its request stream.
func mapWorker(c *config, e *engine, w *worker, r *mapRunner, stream []op, kv *kvModel) {
	// Worker 0 replayed the head of its stream during set-up.
	pos := 0
	if w.id == 0 {
		pos = c.warmOps % len(stream)
	}
	var batchStart time.Time
	inBatch := 0
	for i := 0; ; i++ {
		a, tr := e.acc(w)
		if a == nil {
			return
		}
		rq := stream[pos]
		if pos++; pos == len(stream) {
			pos = 0
		}
		if tr {
			if inBatch == 0 {
				batchStart = time.Now()
			}
			inBatch++
		}
		var st int
		if i%latEvery == 0 {
			t0 := time.Now()
			st = r.do(rq, kv)
			a.lat = append(a.lat, int64(time.Since(t0)))
		} else {
			st = r.do(rq, kv)
		}
		a.count(rq, st)
		if inBatch == spanBatch || (!tr && inBatch > 0) {
			w.spans.add(span{"shard", "ops", uint64(w.id)<<32 | uint64(i), -1,
				sinceEpoch(batchStart), sinceEpoch(time.Now()), inBatch})
			inBatch = 0
		}
	}
}

// verifyMap is the final model comparison: every private key holds
// exactly what its owner last wrote, every pair in the map decodes to
// its own key, and Len agrees with a full walk.
func verifyMap(o *outcome, r *mapRunner, models []*kvModel) {
	privWant := 0
	for w, kv := range models {
		for i, want := range kv.vals {
			got, ok := r.m.Get(kv.base + uint64(i))
			if got != want || ok != (want != 0) {
				o.failf("worker %d private key %d: map has (%d,%t), model has %d", w, kv.base+uint64(i), got, ok, want)
				return
			}
			if want != 0 {
				privWant++
			}
		}
	}
	walked, shared := 0, 0
	r.m.Range(func(k, v uint64) bool {
		walked++
		if k < r.keys {
			shared++
		}
		if valKey(v) != k {
			o.failf("key %d holds value %d, which encodes key %d", k, v, valKey(v))
			return false
		}
		return true
	})
	if n := r.m.Len(); n != walked {
		o.failf("Len %d != %d pairs walked", n, walked)
	}
	if walked-shared != privWant {
		o.failf("%d private keys present, models say %d", walked-shared, privWant)
	}
	if !r.hasDeletes && uint64(shared) != r.keys {
		o.failf("%d shared keys present, %d were preloaded and none deleted", shared, r.keys)
	}
}
