// Package loadgen is the request loop behind cmd/shardload, which drives
// it over the wire at a shardd. The paper drives every lock with the same
// load loop and varies only the lock (arXiv:1511.06035 §6); here the lock
// is varied by shardd's flags, the Target is the seam tests script, and
// Run owns everything else: the Poisson or closed-loop schedule, key pick
// and op mix, the deadline draw and class tag, connection churn, the
// accounting, per-worker latency logs, and the harness half of fault
// injection (hot-key rewrite, surge workers as extra dialed targets) on a
// supervised chaos timeline.
//
// Five accounting rules hold for every cell, whatever the target, and no
// flag selects them:
//
//  1. A request's deadline budget and its latency both start at its
//     scheduled arrival (open loop) or its issue time (closed loop): a
//     generator running behind schedule burns budget exactly like a
//     queue in front of a real service, so queueing the target causes is
//     charged to the target (no coordinated omission).
//  2. Each deadline is drawn uniformly from [0.5d, 1.5d] around the base
//     budget d.
//  3. A rejected scan (unordered backend) is neither a deadline attempt
//     nor a miss, and not an op: it is demand the target could not serve.
//  4. A request lost to a broken or draining target is not an attempt
//     either. A deadlined request is an attempt, and a miss but not an
//     op when the target reports its deadline missed or its response
//     arrives after the deadline: a reply the client gets too late is
//     no more use to it than none. A reported miss stays out of the
//     latency pool (its latency is the deadline by construction); a late
//     reply keeps its measured latency there, so p99 shows the tail it
//     missed by. So ops + misses + rejected + broken == issued.
//  5. Throughput divides ops by the measured elapsed time, first dial to
//     last worker exit — not by the nominal duration.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/fault"
	"repro/internal/benchfmt"
	"repro/shard"
	"repro/wire"
)

// Op is a request verb.
type Op uint8

const (
	Get Op = iota
	Put
	Scan
)

// Request is one generated request. Arg is the value of a Put and the
// inclusive upper bound of a Scan; a zero Deadline means patient.
type Request struct {
	Op       Op
	Key, Arg uint64
	Deadline time.Time
	Class    uint8
}

// Outcome is what became of a request.
type Outcome uint8

const (
	OK       Outcome = iota
	Missed           // the deadline expired before the stripe was reached
	Rejected         // a scan against a backend that keeps no key order
	Draining         // the target is shutting down: the worker stops
	Broken           // I/O or protocol failure: the worker re-dials
)

// Target is where requests go: one worker's view of the system under
// load. Do issues one request synchronously; a Target is used by one
// goroutine at a time.
type Target interface {
	Do(Request) Outcome
	Close()
}

// Dial opens worker's Target. Run dials once per worker, again on churn
// and after a Broken outcome, and once per surge worker (ids from
// Traffic.Workers up).
type Dial func(worker int) (Target, error)

// WireDial returns the remote Dial: one synchronous wire.Client
// connection to the shardd at addr per worker.
func WireDial(addr string) Dial {
	return func(int) (Target, error) {
		cl, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		return wireTarget{cl}, nil
	}
}

type wireTarget struct{ cl *wire.Client }

func (t wireTarget) Do(r Request) Outcome {
	t.cl.Class = r.Class
	var err error
	switch r.Op {
	case Get:
		_, _, err = t.cl.Get(r.Key, r.Deadline)
	case Put:
		_, err = t.cl.Put(r.Key, r.Arg, r.Deadline)
	case Scan:
		_, err = t.cl.Scan(r.Key, r.Arg, 0, r.Deadline, func(_, _ uint64) bool { return true })
	}
	switch {
	case err == nil:
		return OK
	case errors.Is(err, wire.ErrDeadline):
		return Missed
	case errors.Is(err, wire.ErrUnordered):
		return Rejected
	case errors.Is(err, wire.ErrDraining):
		return Draining
	}
	return Broken
}

func (t wireTarget) Close() { t.cl.Close() }

// Traffic is the load one cell offers. Every field is a shardload flag.
type Traffic struct {
	Workers  int           // -conns
	Duration time.Duration // nominal cell length
	Rate     float64       // total requests/sec, Poisson, split across workers; 0 = closed loop

	Keys  int
	Dist  string // "zipf" or "uniform"
	ZipfS float64

	ReadFrac float64 // of point ops, the fraction that are Gets
	ScanFrac float64 // of all requests, the fraction that are scans
	ScanSpan int     // consecutive keys each scan covers

	Deadline     time.Duration // base budget d; 0 = no request carries one
	DeadlineFrac float64       // fraction of requests carrying a deadline
	Classes      int           // deadlined requests cycle classes 1..Classes; 0 = everything class 0

	Churn time.Duration // per-worker close + re-dial cadence; 0 = never
	Seed  uint64
}

// Chaos is one cell's scripted fault timeline: healthy for After, the
// fault armed for For, then a recovery tail until the cell ends.
type Chaos struct {
	// Set is the locally parsed fault set. Run arms and disarms it on the
	// timeline and runs its harness hooks: every worker's key goes through
	// Set.Key, and Set.ExtraThreads sizes the surge pool at each sample.
	Set        *fault.Set
	After, For time.Duration
	Sample     time.Duration // sampler cadence
	Target     float64       // trailing miss rate at or below which a sample counts as calm

	// Arm and Disarm, if non-nil, switch the data-plane half on and off
	// where Set cannot reach it — shardd, over the wire's FAULT verb.
	Arm, Disarm func()
}

// Validate reports the first flag value the loop cannot run with, in
// shardload's flag names. c may be nil.
func (t Traffic) Validate(c *Chaos) error {
	switch {
	case t.Dist != "uniform" && t.Dist != "zipf":
		return fmt.Errorf("-dist: unknown distribution %q (want uniform or zipf)", t.Dist)
	case t.Dist == "zipf" && t.ZipfS <= 1:
		// rand.NewZipf returns nil for s <= 1, which would silently serve
		// uniform keys under a "zipf" label in the record.
		return fmt.Errorf("-zipf-s: %v is out of range (want s > 1)", t.ZipfS)
	case t.ScanFrac > 0 && t.ScanSpan < 1:
		return fmt.Errorf("-scan-span: want a positive span")
	case c == nil:
		return nil
	case c.Sample <= 0:
		return fmt.Errorf("-fault-sample: want a positive cadence")
	case c.After+c.For >= t.Duration:
		// A fault that outlives the measurement proves nothing about
		// recovery.
		return fmt.Errorf("-fault timeline (-fault-after %v + -fault-for %v) leaves no recovery tail inside -duration %v", c.After, c.For, t.Duration)
	}
	return nil
}

// Record starts the benchfmt document for cells driven with t (and c, if
// non-nil): the host and the workload parameters every cell shares.
func (t Traffic) Record(c *Chaos) benchfmt.Record {
	rec := benchfmt.Record{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Keys:       t.Keys,
		ReadFrac:   t.ReadFrac,
		ScanFrac:   t.ScanFrac,
		ZipfS:      t.ZipfS,
		Rate:       t.Rate,
	}
	if t.ScanFrac > 0 {
		rec.ScanSpan = t.ScanSpan
	}
	if t.Deadline > 0 && t.DeadlineFrac > 0 {
		rec.Deadline = t.Deadline.String()
	}
	if c != nil {
		rec.Fault = c.Set.String()
		rec.FaultAfter = c.After.String()
		rec.FaultFor = c.For.String()
		rec.FaultSample = c.Sample.String()
		rec.FaultTarget = c.Target
	}
	return rec
}

// Result is one cell's generator-side accounting (see the package
// comment for the rules).
type Result struct {
	Issued   int // requests handed to a target
	Ops      int // completed in time (scans included)
	Scans    int // scans completed in time
	Rejected int // scans refused for want of an ordered backend
	Attempts int // completed or missed requests that carried a deadline
	Misses   int
	Broken   int // lost to a broken or draining target

	DialErrors int           // workers that could not (re-)dial and gave up
	Elapsed    time.Duration // measured, first dial to last worker exit
	Latencies  []int64       // ns from scheduled arrival, served requests only (late ones included)
	Chaos      *benchfmt.ChaosResult
}

// Fill writes the generator-side columns of a benchfmt cell, and the
// target-side counter columns from served — the target map's counters
// after the run minus before it (shard.Counters.Sub), as read from INFO.
// With Stats["acquires"] the optimistic columns are the zero-lock-read
// claim in one row: on a read-heavy cell, hits ≈ Gets and acquires ≈
// writes.
func (r Result) Fill(t Traffic, served shard.Counters, out *benchfmt.Result) {
	out.Dist = t.Dist
	out.Threads = t.Workers
	out.Duration = r.Elapsed.Seconds()
	out.Ops = r.Ops
	out.OpsPerSec = float64(r.Ops) / r.Elapsed.Seconds()
	out.Scans = r.Scans
	out.ScansRejected = r.Rejected
	out.P50Micros = benchfmt.PercentileMicros(r.Latencies, 0.50)
	out.P99Micros = benchfmt.PercentileMicros(r.Latencies, 0.99)
	out.DeadlineAttempts = r.Attempts
	out.DeadlineMisses = r.Misses
	out.MissRate = benchfmt.Rate(r.Misses, r.Attempts)
	out.Chaos = r.Chaos

	out.OptimisticHits = int(served.OptimisticHits)
	out.OptimisticRetries = int(served.OptimisticRetries)
	out.OptimisticFallbacks = int(served.OptimisticFallbacks)
	out.OptimisticHitRate = benchfmt.Rate(out.OptimisticHits, out.OptimisticHits+out.OptimisticFallbacks)
	out.OptimisticFallbackRate = benchfmt.Rate(out.OptimisticFallbacks, out.OptimisticHits+out.OptimisticFallbacks)
	out.Stats = make(map[string]uint64)
	served.Lock.Each(func(name string, v uint64) { out.Stats[name] = v })
}

// run is one cell in flight: the traffic, where it goes, and what the
// workers share. Attempts and misses are shared because the chaos sampler
// reads them live; every other count stays in its worker's tally until
// the end, off the measurement path.
type run struct {
	Traffic
	dial    Dial
	set     *fault.Set // the chaos timeline's harness hooks; nil without one
	stop    atomic.Bool
	workers sync.WaitGroup

	attempts, misses, dialErrs atomic.Int64
}

// tally is one worker's private accounting.
type tally struct {
	issued, ops, scans, rejected, broken int
	log                                  []int64 // latencies of completed requests
}

// Run offers t to the targets dial opens for t.Duration, under the chaos
// timeline c if non-nil, and returns the accounting. It returns with
// every worker (and surge worker) exited and every target closed.
func Run(t Traffic, dial Dial, c *Chaos) Result {
	r := &run{Traffic: t, dial: dial}
	r.workers.Add(t.Workers)
	var chaos chan *benchfmt.ChaosResult
	if c != nil {
		r.set = c.Set
		chaos = make(chan *benchfmt.ChaosResult, 1)
		go func() { chaos <- r.supervise(c) }()
	}
	tallies := make([]tally, t.Workers)
	start := time.Now()
	for id := range tallies {
		go func() {
			defer r.workers.Done()
			r.worker(id, &tallies[id])
		}()
	}
	time.Sleep(t.Duration)
	r.stop.Store(true)
	r.workers.Wait()
	res := Result{Elapsed: time.Since(start), Attempts: int(r.attempts.Load()), Misses: int(r.misses.Load())}
	if chaos != nil {
		res.Chaos = <-chaos
	}
	res.DialErrors = int(r.dialErrs.Load())
	for _, n := range tallies {
		res.Issued += n.issued
		res.Ops += n.ops
		res.Scans += n.scans
		res.Rejected += n.rejected
		res.Broken += n.broken
		res.Latencies = append(res.Latencies, n.log...)
	}
	return res
}

// worker is the request loop: one synchronous requester over its own
// target until the cell stops, the target drains, or a re-dial fails,
// counting into n.
func (r *run) worker(id int, n *tally) {
	rng := rand.New(rand.NewSource(int64(r.Seed)*1315423911 + int64(id)))
	pick := keyPicker(rng, r.Dist, r.ZipfS, r.Keys)
	var tgt Target
	var dialed time.Time
	connect := func() bool {
		if tgt != nil {
			tgt.Close()
		}
		var err error
		if tgt, err = r.dial(id); err != nil {
			tgt = nil
			r.dialErrs.Add(1)
			return false
		}
		dialed = time.Now()
		return true
	}
	defer func() {
		if tgt != nil {
			tgt.Close()
		}
	}()
	if !connect() {
		return
	}

	perWorker := r.Rate / float64(r.Workers)
	next := time.Now()
	n.log = make([]int64, 0, 1<<14)
	for seq := uint64(0); !r.stop.Load(); seq++ {
		arrival := time.Now()
		if perWorker > 0 {
			// Open loop: the next point of a Poisson schedule this worker
			// must keep up with, whether or not the target does.
			next = next.Add(time.Duration(rng.ExpFloat64() / perWorker * float64(time.Second)))
			arrival = next
			if !sleepUntil(next, &r.stop) {
				break
			}
		}
		if r.Churn > 0 && time.Since(dialed) >= r.Churn && !connect() {
			break
		}
		req := Request{Op: Put, Key: pick()}
		if r.set != nil {
			// Skew storm: an active hotkey fault funnels this request to
			// its key (identity while inactive).
			req.Key = r.set.Key(req.Key)
		}
		switch {
		case r.ScanFrac > 0 && rng.Float64() < r.ScanFrac:
			req.Op, req.Arg = Scan, req.Key+uint64(r.ScanSpan)-1
		case rng.Float64() < r.ReadFrac:
			req.Op = Get
		default:
			req.Arg = uint64(id)<<32 | seq
		}
		deadlined := r.Deadline > 0 && rng.Float64() < r.DeadlineFrac
		if deadlined {
			req.Deadline = arrival.Add(time.Duration((0.5 + rng.Float64()) * float64(r.Deadline)))
			if r.Classes > 0 {
				req.Class = uint8(1 + seq%uint64(r.Classes))
			}
		}

		n.issued++
		switch out := tgt.Do(req); out {
		case OK:
			done := time.Now()
			n.log = append(n.log, int64(done.Sub(arrival)))
			if deadlined {
				r.attempts.Add(1)
				if done.After(req.Deadline) {
					r.misses.Add(1)
					break
				}
			}
			if req.Op == Scan {
				n.scans++
			}
			n.ops++
		case Missed:
			if !deadlined {
				panic("loadgen: a request without a deadline reported a deadline miss")
			}
			r.attempts.Add(1)
			r.misses.Add(1)
		case Rejected:
			n.rejected++
		case Draining, Broken:
			// A dead connection is re-dialed and the schedule kept — an
			// open-loop generator does not stop arriving because one
			// socket broke. A draining target ends the worker.
			n.broken++
			if out == Draining || r.stop.Load() || !connect() {
				return
			}
		}
	}
}

// surge is one surplus worker: a patient (deadline-free), uncounted,
// closed-loop writer over its own target, alive while a surge fault asks
// for it — the paper's overthreading collapse injected on demand.
func (r *run) surge(id int, quit <-chan struct{}) {
	tgt, err := r.dial(id)
	if err != nil {
		r.dialErrs.Add(1)
		return
	}
	defer tgt.Close()
	rng := rand.New(rand.NewSource(int64(r.Seed)*2654435761 + int64(id)))
	for !r.stop.Load() {
		select {
		case <-quit:
			return
		default:
		}
		req := Request{Op: Put, Key: r.set.Key(uint64(rng.Intn(r.Keys))), Arg: uint64(id)}
		if out := tgt.Do(req); out == Draining || out == Broken {
			return
		}
	}
}

// supervise drives c's timeline until the cell stops: it arms the fault
// at After and disarms it For later (a cell that ends mid-storm is
// disarmed on the way out), and from Arm on samples the workers' deadline
// counters and sizes the surge pool every Sample. It returns the phase
// accounting with the local set's injection evidence — a caller whose
// InCS ran elsewhere overwrites Stalls and StallMillis from there — once
// every surge worker has drained.
//
// The sampler reads the workers' own counters, never a map snapshot: a
// monitor acquiring a stormed stripe's lock is exactly the kind of
// patient arrival a culling lock passivates, and the measurement must not
// stall behind the convoy it is measuring.
func (r *run) supervise(c *Chaos) *benchfmt.ChaosResult {
	var pool []chan struct{}
	var wg sync.WaitGroup
	resize := func(want int) {
		for len(pool) < want {
			quit := make(chan struct{})
			id := r.Workers + len(pool)
			pool = append(pool, quit)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.surge(id, quit)
			}()
		}
		for len(pool) > want {
			close(pool[len(pool)-1])
			pool = pool[:len(pool)-1]
		}
	}
	disarm := func() {
		c.Set.Disarm()
		if c.Disarm != nil {
			c.Disarm()
		}
	}

	p := phases{target: c.Target, cr: &benchfmt.ChaosResult{RecoveryMillis: -1}}
	start := time.Now()
	tick := time.NewTicker(c.Sample)
	defer tick.Stop()
	for !r.stop.Load() {
		<-tick.C
		now := time.Now()
		// Misses before attempts: workers count them in the other order,
		// so a sample never holds more misses than attempts.
		m, a := r.misses.Load(), r.attempts.Load()
		switch {
		case p.phase == pre && now.Sub(start) >= c.After:
			p.arm(now, a, m)
			c.Set.Arm()
			if c.Arm != nil {
				c.Arm()
			}
			continue
		case p.phase == storming && now.Sub(p.armedAt) >= c.For:
			p.disarm(a, m)
			disarm()
		}
		if p.phase == pre {
			continue
		}
		resize(c.Set.ExtraThreads()) // 0 once disarmed
		p.sample(now, a, m)
	}
	r.workers.Wait() // the last requests in flight belong to the last phase
	if p.finish(r.attempts.Load(), r.misses.Load()) == storming {
		disarm()
	}
	resize(0)
	wg.Wait()
	st := c.Set.Stats()
	p.cr.Fault = c.Set.String()
	p.cr.Stalls = st.Stalls
	p.cr.StallMillis = float64(st.StallTime) / float64(time.Millisecond)
	p.cr.Reroutes = st.Reroutes
	p.cr.SurgePeak = st.SurgePeak
	return p.cr
}

// keyPicker returns a draw over the keyspace [0, keys) from rng: zipf
// popularity with skew zipfS (> 1; key 0 hottest) when dist is "zipf",
// uniform otherwise.
func keyPicker(rng *rand.Rand, dist string, zipfS float64, keys int) func() uint64 {
	if dist == "zipf" {
		return rand.NewZipf(rng, zipfS, 1, uint64(keys-1)).Uint64
	}
	return func() uint64 { return uint64(rng.Intn(keys)) }
}

// sleepUntil sleeps toward t in short slices, abandoning the wait when
// stop is set. It reports whether the caller should proceed (false =
// stopped). Sliced sleeping keeps a low-rate worker from sleeping through
// the end of the cell: an exponential-tail inter-arrival would otherwise
// run one op past the measured window (inflating OpsPerSec exactly where
// each op matters most) and stall cell teardown until the worker wakes.
func sleepUntil(t time.Time, stop *atomic.Bool) bool {
	const slice = 5 * time.Millisecond
	for {
		if stop.Load() {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if d > slice {
			d = slice
		}
		time.Sleep(d)
	}
}

const (
	pre = iota
	storming
	post
)

// phases is the chaos accountant: fed the workers' cumulative
// attempt/miss counters at each timeline event, it splits them into
// pre/fault/post totals and detects recovery — the first three
// consecutive samples with deadline evidence whose trailing miss rate
// held at or below target, clocked from Arm to the first of the three.
type phases struct {
	target float64
	cr     *benchfmt.ChaosResult

	phase          int
	phaseA, phaseM int64 // counters when the current phase began
	lastA, lastM   int64 // counters at the previous sample

	armedAt, calmSince time.Time
	calm               int // consecutive calm samples so far
}

func (p *phases) endPhase(a, m int64) (attempts, misses int) {
	attempts, misses = int(a-p.phaseA), int(m-p.phaseM)
	p.phaseA, p.phaseM = a, m
	return attempts, misses
}

func (p *phases) arm(now time.Time, a, m int64) {
	p.cr.PreAttempts, p.cr.PreMisses = p.endPhase(a, m)
	p.armedAt = now
	p.phase = storming
	p.lastA, p.lastM = a, m
}

func (p *phases) disarm(a, m int64) {
	p.cr.FaultAttempts, p.cr.FaultMisses = p.endPhase(a, m)
	p.phase = post
}

func (p *phases) sample(now time.Time, a, m int64) {
	dA, dM := a-p.lastA, m-p.lastM
	p.lastA, p.lastM = a, m
	if p.cr.RecoveryMillis >= 0 || dA == 0 {
		return // recovered already, or no deadline evidence this sample
	}
	if float64(dM)/float64(dA) > p.target {
		p.calm = 0
		return
	}
	if p.calm == 0 {
		p.calmSince = now
	}
	if p.calm++; p.calm >= 3 {
		p.cr.RecoveryMillis = float64(p.calmSince.Sub(p.armedAt).Milliseconds())
	}
}

// finish closes out whatever phase the cell ended in (a validated
// timeline always reaches post, but the accounting holds regardless),
// computes the per-phase rates and returns that phase.
func (p *phases) finish(a, m int64) int {
	cr := p.cr
	switch p.phase {
	case pre:
		cr.PreAttempts, cr.PreMisses = p.endPhase(a, m)
	case storming:
		cr.FaultAttempts, cr.FaultMisses = p.endPhase(a, m)
	case post:
		cr.PostAttempts, cr.PostMisses = p.endPhase(a, m)
	}
	cr.PreMissRate = benchfmt.Rate(cr.PreMisses, cr.PreAttempts)
	cr.FaultMissRate = benchfmt.Rate(cr.FaultMisses, cr.FaultAttempts)
	cr.PostMissRate = benchfmt.Rate(cr.PostMisses, cr.PostAttempts)
	return p.phase
}
