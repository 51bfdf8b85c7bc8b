//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/wire"
)

// window is served_pipelined's frames in flight per connection.
const window = 32

// openLoopRate is served_openloop's fixed arrival rate, requests per
// second over all connections: about a sixth of the reference host's
// synchronous capacity, so neither side saturates a core.
const openLoopRate = 8000

// conn is one load-generator connection: raw frames out through
// wire.Append*, responses back through wire.Parse*, every response
// checked against the request that caused it.
type conn struct {
	id      int
	nc      net.Conn
	br      *bufio.Reader
	wbuf    []byte
	payload []byte
	kv      *kvModel
	// hasDeletes tells the GET check whether a shared key may be gone.
	hasDeletes bool
	sent, recv uint64

	// Open loop only: the dispatcher writes, a reader goroutine reads.
	busy     atomic.Bool
	inflight chan inflight
}

func dial(addr string, id int, keys uint64, privN int, hasDeletes bool) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial shardd: %w", err)
	}
	return &conn{
		id: id, nc: nc, br: bufio.NewReaderSize(nc, 64<<10),
		wbuf: make([]byte, 0, 64<<10), payload: make([]byte, 0, 4096),
		kv: newKVModel(keys, id, privN), hasDeletes: hasDeletes,
	}, nil
}

// stage appends o's request frame to the write buffer, assigning the
// value a PUT will store. Private ops are rebased onto this
// connection's own range, so a shared stream stays checkable.
func (c *conn) stage(o *op, streamBase uint64) {
	if o.flags&flagPrivate != 0 {
		o.key = o.key - streamBase + c.kv.base
	}
	switch o.kind {
	case opGet:
		c.wbuf = wire.AppendGet(c.wbuf, o.class, o.budgetUS, o.key)
	case opPut:
		c.kv.version++
		c.wbuf = wire.AppendPut(c.wbuf, o.class, o.budgetUS, o.key, encodeVal(o.key, c.kv.version))
	case opDel:
		c.wbuf = wire.AppendDel(c.wbuf, o.class, o.budgetUS, o.key)
	}
}

// flush writes the staged frames in one write.
func (c *conn) flush(n int) error {
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	c.sent += uint64(n)
	return err
}

// receive reads and checks the response to o. version is the value
// version stage assigned when o is a PUT.
func (c *conn) receive(o op, version uint64) (int, error) {
	var hb [wire.RespHeaderSize]byte
	if _, err := io.ReadFull(c.br, hb[:]); err != nil {
		return stFailed, err
	}
	h, err := wire.ParseRespHeader(hb[:])
	if err != nil {
		return stFailed, err
	}
	if cap(c.payload) < int(h.Len) {
		c.payload = make([]byte, h.Len)
	}
	p := c.payload[:h.Len]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return stFailed, err
	}
	c.recv++
	wantOp := [...]wire.Op{opGet: wire.OpGet, opPut: wire.OpPut, opDel: wire.OpDel}[o.kind]
	if h.Op != wantOp {
		return stFailed, fmt.Errorf("response op %v for request %v: the stream lost its framing", h.Op, wantOp)
	}
	if h.Status == wire.StatusDeadline {
		return stDeadline, nil
	}
	if h.Status != wire.StatusOK {
		return stFailed, nil
	}
	private := o.flags&flagPrivate != 0
	switch o.kind {
	case opGet:
		v, found, err := wire.ParseGetResp(p)
		switch {
		case err != nil:
			return stFailed, nil
		case private:
			if want := c.kv.vals[o.key-c.kv.base]; found != (want != 0) || (found && v != want) {
				return stFailed, nil
			}
		case found && valKey(v) != o.key:
			return stFailed, nil
		case !found && !c.hasDeletes:
			return stFailed, nil
		}
	case opPut:
		if _, err := wire.ParseBoolResp(p); err != nil {
			return stFailed, nil
		}
		if private {
			c.kv.vals[o.key-c.kv.base] = encodeVal(o.key, version)
		}
	case opDel:
		present, err := wire.ParseBoolResp(p)
		if err != nil {
			return stFailed, nil
		}
		if private {
			if present != (c.kv.vals[o.key-c.kv.base] != 0) {
				return stFailed, nil
			}
			c.kv.vals[o.key-c.kv.base] = 0
		}
	}
	return stOK, nil
}

// exchange sends ops through the sliding window and checks every
// response. onResp, when set, sees each op's outcome in order.
func (c *conn) exchange(ops []op, streamBase uint64, onResp func(st int)) error {
	var versions [window]uint64
	next, got := 0, 0
	return c.slide(func() bool {
		if next == len(ops) {
			return false
		}
		c.stage(&ops[next], streamBase)
		versions[next%window] = c.kv.version
		next++
		return true
	}, func() error {
		st, err := c.receive(ops[got], versions[got%window])
		if err == nil && onResp != nil {
			onResp(st)
		}
		got++
		return err
	})
}

// slide keeps a sliding window of frames in flight: it tops the
// connection up to window frames in one write, reads half a window of
// responses, and repeats, so the server always has frames buffered and
// never waits on the client's turnaround. stage appends the next frame
// to the write buffer, or reports false when there are no more; recv
// consumes the oldest outstanding response.
func (c *conn) slide(stage func() bool, recv func() error) error {
	inflight, more := 0, true
	for {
		staged := 0
		for more && inflight+staged < window {
			if more = stage(); more {
				staged++
			}
		}
		if staged > 0 {
			if err := c.flush(staged); err != nil {
				return err
			}
			inflight += staged
		}
		if inflight == 0 {
			return nil
		}
		n := inflight
		if more {
			n = min(n, window/2)
		}
		for ; n > 0; n-- {
			if err := recv(); err != nil {
				return err
			}
			inflight--
		}
	}
}

// firstErr keeps the error that broke a run, from whichever goroutine
// met it.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// served is one timed set-up of a served workload: a spawned shardd,
// the connections to it, and the keys preloaded through them.
type served struct {
	d     *shardd
	conns []*conn
}

func (s *served) close() {
	for _, c := range s.conns {
		c.nc.Close()
	}
}

// setupServed spawns shardd, connects nconn connections, preloads the
// shared keys through all of them at once and replays warmOps requests
// of stream on the first.
func setupServed(c *config, nconn int, spec streamSpec, stream []op) (*served, error) {
	d, err := startShardd(c.sharddBin, min(c.nproc, 4))
	if err != nil {
		return nil, err
	}
	s := &served{d: d}
	fail := func(err error) (*served, error) {
		s.close()
		d.kill()
		return nil, err
	}
	for i := 0; i < nconn; i++ {
		cn, err := dial(d.addr, i, c.keys, spec.privN, spec.mix.del > 0)
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, cn)
	}
	errs := make([]error, nconn)
	var wg sync.WaitGroup
	for i, cn := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := c.keys*uint64(i)/uint64(nconn), c.keys*uint64(i+1)/uint64(nconn)
			ops := make([]op, 0, hi-lo)
			for k := lo; k < hi; k++ {
				ops = append(ops, op{kind: opPut, key: k})
			}
			if err := cn.exchange(ops, 0, nil); err != nil {
				errs[i] = fmt.Errorf("preload: %w", err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	warm := make([]op, min(c.warmOps, len(stream)))
	copy(warm, stream)
	bad := 0
	err = s.conns[0].exchange(warm, privBase(c.keys, 0, spec.privN), func(st int) {
		if st == stFailed {
			bad++
		}
	})
	if err != nil {
		return fail(fmt.Errorf("warm ops: %w", err))
	}
	if bad > 0 {
		return fail(fmt.Errorf("%d warm ops failed their checks", bad))
	}
	return s, nil
}

// timedServedSetups runs the set-up c.setups times, draining every
// child but the last, which it returns for measurement.
func timedServedSetups(c *config, o *outcome, nconn int, spec streamSpec, stream []op) (*served, error) {
	if err := c.ensureShardd(); err != nil {
		return nil, err
	}
	var s *served
	for i := 0; i < c.setups; i++ {
		if s != nil {
			finishServed(o, s)
		}
		t0 := time.Now()
		var err error
		if s, err = setupServed(c, nconn, spec, stream); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	return s, nil
}

// finishServed checks that no response was lost, closes the
// connections and drains the child, which must exit 0.
func finishServed(o *outcome, s *served) {
	for _, cn := range s.conns {
		if cn.sent != cn.recv {
			o.failf("connection %d: %d requests sent, %d responses received", cn.id, cn.sent, cn.recv)
		}
	}
	s.close()
	if err := s.d.stop(); err != nil {
		o.failf("%v", err)
	}
}

// verifyServed reads every private key back through its connection.
func verifyServed(o *outcome, s *served) {
	for _, cn := range s.conns {
		ops := make([]op, len(cn.kv.vals))
		for i := range ops {
			ops[i] = op{kind: opGet, key: cn.kv.base + uint64(i), flags: flagPrivate}
		}
		bad := 0
		err := cn.exchange(ops, cn.kv.base, func(st int) {
			if st != stOK {
				bad++
			}
		})
		if err != nil {
			o.failf("connection %d: final read-back: %v", cn.id, err)
		} else if bad > 0 {
			o.failf("connection %d: %d private keys differ from the model", cn.id, bad)
		}
	}
}

// runServedPipelined keeps a window of frames in flight on every
// connection: syscalls amortise over the window, so per-frame work in
// server, wire and shard is what is left to measure.
func runServedPipelined(c *config, traced []bool) (*outcome, error) {
	spec := streamSpec{
		n: c.streamLen, keys: c.keys, zipfS: 1.2,
		mix:     mix{get: 0.90, put: 0.10},
		ctxFrac: 1, budgetLo: 100_000, budgetHi: 100_000, classes: 2,
		privFrac: 1.0 / 16, privN: 4096,
	}
	nconn := c.nproc
	streams := make([][]op, nconn)
	for w := range streams {
		streams[w] = genStream(c.seed, w, spec)
	}
	o := &outcome{layer: map[string]float64{}}
	s, err := timedServedSetups(c, o, nconn, spec, streams[0])
	if err != nil {
		return nil, err
	}

	e := newEngine(c.nseg, traced)
	var broken firstErr
	segs, workers := e.run(nconn, 0, c.warm, c.segLen, s.d.cpu, func(w *worker) {
		cn, stream := s.conns[w.id], streams[w.id]
		base := privBase(c.keys, w.id, spec.privN)
		pos := 0
		if w.id == 0 {
			pos = c.warmOps % len(stream)
		}
		// ring holds the frames in flight, oldest at tail.
		var ring [window]struct {
			rq      op
			version uint64
			sent    time.Time
		}
		head, tail := 0, 0
		var batch time.Time // when the frames now being staged will be written
		err := cn.slide(func() bool {
			if a, _ := e.acc(w); a == nil {
				return false
			}
			if len(cn.wbuf) == 0 {
				batch = time.Now()
			}
			f := &ring[head%window]
			f.rq = stream[pos]
			if pos++; pos == len(stream) {
				pos = 0
			}
			cn.stage(&f.rq, base)
			f.version, f.sent = cn.kv.version, batch
			head++
			return true
		}, func() error {
			f := &ring[tail%window]
			tail++
			st, err := cn.receive(f.rq, f.version)
			a, tr := e.acc(w)
			if a == nil {
				return err // the run is over: drain what is still in flight
			}
			if err != nil {
				// This frame and the rest in flight are lost.
				a.attempted += uint64(head - tail + 1)
				a.failed += uint64(head - tail + 1)
				return err
			}
			done := time.Now()
			a.lat = append(a.lat, int64(done.Sub(f.sent)))
			a.count(f.rq, st)
			if tr && tail%(window/2) == 0 {
				// One span per half window: the batch the frame was written
				// in, and the wait for its response.
				req := uint64(w.id)<<32 | uint64(tail)
				w.spans.add(span{"server", "write-to-response", req, -1, sinceEpoch(f.sent), sinceEpoch(done), window / 2})
			}
			return nil
		})
		if err != nil {
			broken.set(fmt.Errorf("connection %d: %w", w.id, err))
		}
	})
	o.segs = segs
	o.peakRSS = s.d.peakRSSMB()
	for _, w := range workers {
		o.spans = append(o.spans, &w.spans)
	}
	if broken.err != nil {
		o.failf("%v", broken.err)
	} else {
		verifyServed(o, s)
	}
	finishServed(o, s)
	return o, nil
}

// spinWindow is how long before a due time the dispatcher stops
// sleeping and busy-waits: twice the kernel's median oversleep, so most
// requests go out on time, and short enough that the spin never holds a
// CPU for a scheduler slice.
const spinWindow = 60 * time.Microsecond

// inflight is an open-loop request on its way: what the dispatcher
// tells the connection's reader about the frame it just wrote.
type inflight struct {
	due, sent time.Time
	// queued is set when the request came due while every connection
	// was busy, or while the dispatcher was held up by one that did: that
	// wait is the system's backlog, not the generator's lateness.
	queued  bool
	rq      op
	version uint64
	idx     int
}

// openLoopRun is what one open-loop run over a set of connections
// produced.
type openLoopRun struct {
	segs    []segResult
	workers []*worker
	broken  firstErr // a connection failed mid-run
}

// dispatch owns the Poisson schedule and writes every request itself,
// on the first idle connection, at its due time; the parked goroutines
// are the per-connection readers. It sleeps in the kernel until
// spinWindow before the next due time and busy-waits the rest: Go's
// timers fire a millisecond late, and a goroutine parked on a channel
// takes ~90 µs to start while its waker keeps running, so at 125 µs
// between arrivals either would measure the runtime, not shardd. A
// request that finds every connection busy is written when one frees,
// still timed from when it was due. The dispatcher is deliberately not
// locked to its thread and never spins for long: benchmark/README.md
// records what each of those costs on a two-CPU host.
func dispatch(e *engine, start time.Time, schedule []int64, conns []*conn, stream []op, streamBase uint64) error {
	waited := false       // this request found every connection busy
	var backlog time.Time // until when the dispatcher was held up by one that did
	for i := 0; i < len(schedule) && e.cur.Load() <= e.n; {
		due := start.Add(time.Duration(schedule[i]))
		if d := time.Until(due); d > 0 {
			if d > spinWindow {
				nanosleep(d - spinWindow)
			}
			continue
		}
		sent := false
		for _, cn := range conns {
			if cn.busy.Load() {
				continue
			}
			rq := stream[i%len(stream)]
			cn.stage(&rq, streamBase)
			cn.busy.Store(true)
			at := time.Now()
			cn.inflight <- inflight{due, at, waited || due.Before(backlog), rq, cn.kv.version, i}
			if err := cn.flush(1); err != nil {
				return fmt.Errorf("connection %d: %w", cn.id, err)
			}
			if waited {
				backlog = at
			}
			i++
			sent, waited = true, false
			break
		}
		if !sent {
			waited = true
			// Spinning here would hold the CPU against the very threads
			// whose responses free the connections.
			nanosleep(10 * time.Microsecond)
		}
	}
	return nil
}

// nanosleep blocks the calling OS thread in the kernel, which wakes it
// tens of microseconds late; Go's own timers are a millisecond late. It
// is a raw syscall so that the Go scheduler does not take the sleep for
// a blocking call and hand the dispatcher's P away.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// The kernel rounds a thread's sleeps up by its timer slack, 50 µs by
	// default. Slack is per thread and the goroutine may have moved, so
	// it is set before every sleep.
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)        //nolint:errcheck // the default slack only makes the sleep coarser
	syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) //nolint:errcheck // an interrupted sleep is a shorter sleep
}

// openLoop drives Poisson arrivals at openLoopRate over conns, one
// request in flight per connection, for e's segments. stream is shared:
// whichever connection is free takes the next due request.
func openLoop(c *config, e *engine, conns []*conn, warm, segLen time.Duration,
	cpu func() time.Duration, stream []op, streamBase uint64) *openLoopRun {
	r := new(openLoopRun)
	total := warm + time.Duration(e.n)*segLen
	schedule := poissonSchedule(c.seed, openLoopRate, int64(total+time.Second))
	for _, cn := range conns {
		cn.inflight = make(chan inflight, 1) // one request in flight per connection
	}
	var stopping atomic.Bool
	var dispatched sync.WaitGroup
	dispatched.Add(1)
	start := time.Now().Add(5 * time.Millisecond)
	go func() {
		defer dispatched.Done()
		if err := dispatch(e, start, schedule, conns, stream, streamBase); err != nil {
			r.broken.set(err)
		}
		// Let the last responses arrive, then wake the readers out of
		// their blocking reads.
		for wait := time.Now(); time.Since(wait) < time.Second; time.Sleep(time.Millisecond) {
			idle := true
			for _, cn := range conns {
				idle = idle && !cn.busy.Load()
			}
			if idle {
				break
			}
		}
		stopping.Store(true)
		for _, cn := range conns {
			cn.nc.SetReadDeadline(time.Now()) //nolint:errcheck // a closed socket wakes its reader too
		}
	}()

	r.segs, r.workers = e.run(len(conns), 0, warm, segLen, cpu, func(w *worker) {
		cn := conns[w.id]
		for {
			// Block until the first byte of a response is readable; only
			// then is there an inflight record to take.
			if _, err := cn.br.Peek(1); err != nil {
				if !stopping.Load() {
					r.broken.set(fmt.Errorf("connection %d: %w", w.id, err))
				}
				return
			}
			fl := <-cn.inflight
			st, err := cn.receive(fl.rq, fl.version)
			done := time.Now()
			cn.busy.Store(false)
			if err != nil {
				r.broken.set(fmt.Errorf("connection %d: %w", w.id, err))
				return
			}
			a, tr := e.acc(w)
			if a == nil {
				continue
			}
			a.count(fl.rq, st)
			if !fl.queued {
				a.late = append(a.late, int64(fl.sent.Sub(fl.due)))
			}
			a.lat = append(a.lat, int64(done.Sub(fl.due)))
			if st != stOK || done.Sub(fl.due) > sloLimit {
				a.sloMissed++
			}
			if tr {
				req := uint64(fl.idx)
				p := w.spans.add(span{"loadgen", "request", req, -1, sinceEpoch(fl.due), sinceEpoch(done), 1})
				w.spans.add(span{"loadgen", "queue", req, p, sinceEpoch(fl.due), sinceEpoch(fl.sent), 1})
				w.spans.add(span{"socket", "round-trip", req, p, sinceEpoch(fl.sent), sinceEpoch(done), 1})
			}
		}
	})
	dispatched.Wait()
	for _, cn := range conns {
		cn.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // the final read-back reports a dead socket
	}
	return r
}

// openLoopSpec is served_openloop's request stream.
func openLoopSpec(c *config) streamSpec {
	return streamSpec{
		n: c.streamLen, keys: c.keys, zipfS: 1.2,
		mix:     mix{get: 0.80, put: 0.15, del: 0.05},
		ctxFrac: 0.5, budgetLo: 1000, budgetHi: 3000,
		privFrac: 1.0 / 16, privN: 4096,
	}
}

// runServedOpenLoop is latency as a client sees it: Poisson arrivals at
// a fixed rate, one request in flight per connection, each timed from
// when it was due.
func runServedOpenLoop(c *config, traced []bool) (*outcome, error) {
	spec := openLoopSpec(c)
	stream := genStream(c.seed, 0, spec)
	streamBase := privBase(c.keys, 0, spec.privN)
	o := &outcome{layer: map[string]float64{}, openLoop: true}
	s, err := timedServedSetups(c, o, c.nproc, spec, stream)
	if err != nil {
		return nil, err
	}
	r := openLoop(c, newEngine(c.nseg, traced), s.conns, c.warm, c.segLen, s.d.cpu, stream, streamBase)
	o.segs = r.segs
	o.peakRSS = s.d.peakRSSMB()
	for _, w := range r.workers {
		o.spans = append(o.spans, &w.spans)
	}
	if r.broken.err != nil {
		o.failf("%v", r.broken.err)
	} else {
		verifyServed(o, s)
	}
	finishServed(o, s)
	return o, nil
}
