//go:build linux

package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// segAcc is what one worker accumulates during one segment. Workers own
// their accumulators exclusively while running; the coordinator reads
// them only after every worker has returned.
type segAcc struct {
	attempted   uint64
	failed      uint64 // errored, refused, lost, or failed a correctness check
	dlAttempted uint64 // ops that carried a deadline
	dlMissed    uint64 // of those, the ones that returned a deadline error
	sloMissed   uint64 // open loop: failed, deadline-missed, or slower than the limit

	lat  []int64 // per-op latency samples, ns
	wait []int64 // traced lock_oversub: Lock call → acquired, ns
	hold []int64 // traced lock_oversub: acquired → Unlock returned, ns
	late []int64 // open loop: actual send time − due time, ns
}

func (a *segAcc) completed() uint64 { return a.attempted - a.failed - a.dlMissed }

// worker is one load-generating goroutine's private state.
type worker struct {
	id    int
	seg   []segAcc // indexed by segment; 0 is the discarded warm-up
	spans spanBuf
	_     [64]byte // keep neighbouring workers' hot counters on their own lines
}

// engine sequences a run: segment 0 is the warm-up, 1..n are measured,
// and a current segment above n tells the workers to stop. Workers read
// cur once per operation; the coordinator is its only writer.
type engine struct {
	cur    atomic.Int32
	n      int32
	traced []bool // per segment: record spans and per-op lock timing
	// team, when set, supplies the goroutines the workers run on;
	// otherwise each worker gets a fresh one.
	team team
}

// team is a set of parked goroutines that run whatever they are handed,
// so that a short trial and the measurement that follows it can run on
// the very same stacks.
type team []chan func()

func newTeam(n int) team {
	t := make(team, n)
	for i := range t {
		ch := make(chan func())
		t[i] = ch
		go serve(ch)
	}
	return t
}

// serve runs what it is handed from beneath a large frame. The runtime
// moves a goroutine's stack when it outgrows it and when a collection
// finds it using under a quarter of it; with 48 KiB in use from the
// start the stack grows once, here, and never shrinks, so the addresses
// a trial saw are the addresses the measurement runs on.
//
//go:noinline
func serve(ch <-chan func()) {
	var pad [48 << 10]byte
	for f := range ch {
		f()
	}
	runtime.KeepAlive(&pad)
}

// dismiss ends the team's goroutines once they are idle.
func (t team) dismiss() {
	for _, ch := range t {
		close(ch)
	}
}

func newEngine(n int, traced []bool) *engine {
	e := &engine{n: int32(n), traced: make([]bool, n+1)}
	copy(e.traced[1:], traced)
	return e
}

// acc returns the accumulator for the segment now running and whether
// it is traced, or nil once the run is over.
func (e *engine) acc(w *worker) (*segAcc, bool) {
	s := e.cur.Load()
	if s > e.n {
		return nil, false
	}
	return &w.seg[s], e.traced[s]
}

// noCPU is the cpu reading of a run nobody charges CPU for.
func noCPU() time.Duration { return 0 }

// boundary is the coordinator's reading at a segment edge.
type boundary struct {
	at  time.Time
	cpu time.Duration
}

// segResult is one measured segment, merged across workers.
type segResult struct {
	wall time.Duration
	cpu  time.Duration
	segAcc
	parts [][]int64 // the workers' latency samples, unmerged
}

// run starts nworkers goroutines (stagger apart, so that a contended
// lock converges to its equilibrium instead of the churn basin a
// barrier start wedges it in — DESIGN.md §5), drives the segment clock
// and returns the measured segments. cpu reads the CPU time consumed so
// far by the process hosting the system under test.
func (e *engine) run(nworkers int, stagger, warm, segLen time.Duration,
	cpu func() time.Duration, body func(w *worker)) ([]segResult, []*worker) {
	workers := make([]*worker, nworkers)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{id: i, seg: make([]segAcc, e.n+1)}
		workers[i] = w
		wg.Add(1)
		work := func() {
			defer wg.Done()
			time.Sleep(time.Duration(w.id) * stagger)
			body(w)
		}
		if e.team != nil {
			e.team[i] <- work
		} else {
			go work()
		}
	}
	edges := make([]boundary, 0, e.n+1)
	time.Sleep(warm)
	for s := int32(0); s <= e.n; s++ {
		edges = append(edges, boundary{time.Now(), cpu()})
		e.cur.Store(s + 1)
		if s < e.n {
			time.Sleep(segLen)
		}
	}
	wg.Wait()

	out := make([]segResult, e.n)
	for s := range out {
		r := &out[s]
		r.wall = edges[s+1].at.Sub(edges[s].at)
		r.cpu = edges[s+1].cpu - edges[s].cpu
		for _, w := range workers {
			a := &w.seg[s+1]
			r.attempted += a.attempted
			r.failed += a.failed
			r.dlAttempted += a.dlAttempted
			r.dlMissed += a.dlMissed
			r.sloMissed += a.sloMissed
			r.parts = append(r.parts, a.lat)
			r.wait = append(r.wait, a.wait...)
			r.hold = append(r.hold, a.hold...)
			r.late = append(r.late, a.late...)
		}
	}
	return out, workers
}
