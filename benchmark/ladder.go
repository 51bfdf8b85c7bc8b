//go:build linux

package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/lock"
	"repro/metrics"
	"repro/optimistic"
	"repro/server"
	"repro/shard"
	"repro/store"
	"repro/wire"
)

// The ladder times every layer from the outside, bottom-up, one rung per
// public call, on one goroutine over one fixed request stream, so that a
// rung's operation counts repeat exactly and a layer's self time is its
// rung minus the rungs beneath it.

// ladderReps is how often each rung runs; the median is reported.
const ladderReps = 3

// ladder collects per-layer metrics and the spans of the rungs.
type ladder struct {
	c     *config
	vals  map[string]stat
	spans spanBuf
	keys  []uint64 // the fixed request stream: zipf over the shared keys
	sink  uint64
}

// rung runs fn — which performs n operations — ladderReps times and
// returns the median nanoseconds per operation. Each repetition is one
// span: n operations under two clock reads.
func (l *ladder) rung(layer, name string, n int, fn func()) float64 {
	return l.rungPrep(layer, name, n, func() {}, fn)
}

// rungPrep is rung with an untimed prepare step before each repetition.
func (l *ladder) rungPrep(layer, name string, n int, prepare, fn func()) float64 {
	per := make([]float64, ladderReps)
	for i := range per {
		prepare()
		t0 := time.Now()
		fn()
		t1 := time.Now()
		l.spans.add(span{layer, name, uint64(i), -1, sinceEpoch(t0), sinceEpoch(t1), n})
		per[i] = float64(t1.Sub(t0)) / float64(n)
	}
	s := summarize(per)
	l.vals[layer+"."+name] = s
	return s.Median
}

// rungScaled is rung for a metric reported in a coarser unit: the
// rung's nanoseconds divided by div.
func (l *ladder) rungScaled(layer, name string, n int, div float64, fn func()) {
	l.rung(layer, name, n, fn)
	s := l.vals[layer+"."+name]
	s.Median, s.Q1, s.Q3 = s.Median/div, s.Q1/div, s.Q3/div
	l.vals[layer+"."+name] = s
}

// set records a derived or counted value.
func (l *ladder) set(name string, v float64) { l.vals[name] = exact(v) }

func (l *ladder) get(name string) float64 { return l.vals[name].Median }

// mallocs returns how many heap objects fn allocated, process-wide.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// heapDelta returns the live-heap growth, in bytes, that build leaves
// behind. The caller keeps build's product reachable.
func heapDelta(build func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	build()
	runtime.GC()
	runtime.ReadMemStats(&b)
	return float64(b.HeapAlloc) - float64(a.HeapAlloc)
}

// liveDeadlineCtx is the context a served, classed, deadlined request
// reaches the map with: cancellable, never expiring during the run.
func liveDeadlineCtx() (context.Context, context.CancelFunc) {
	return context.WithDeadline(shard.WithClass(context.Background(), 1), time.Now().Add(24*time.Hour))
}

func runLadder(c *config) (*ladder, error) {
	l := &ladder{c: c, vals: map[string]stat{}}
	rng := rand.New(rand.NewSource(streamSeed(c.seed, -3)))
	zipf := rand.NewZipf(rng, 1.2, 1, c.keys-1)
	l.keys = make([]uint64, c.ladderOps)
	for i := range l.keys {
		l.keys[i] = rankKey(zipf.Uint64(), c.keys)
	}
	l.lockRungs()
	l.metricsRungs()
	if err := l.storeRungs(); err != nil {
		return nil, err
	}
	l.optimisticRungs()
	if err := l.shardRungs(); err != nil {
		return nil, err
	}
	l.wireRungs()
	if err := l.serverRungs(); err != nil {
		return nil, err
	}
	l.derive()
	if err := l.workloadRungs(); err != nil {
		return nil, err
	}
	return l, nil
}

// workloadRungs takes the numbers only a running workload can supply —
// lock waiting and holding times, event rates and fairness under
// oversubscription; optimistic read outcomes under concurrent writers —
// from one segment each of lock_oversub (traced) and map_read_zipf.
func (l *ladder) workloadRungs() error {
	mc := *l.c
	mc.setups, mc.nseg, mc.warm, mc.segLen = 1, 1, l.c.probe/4, l.c.probe
	o, err := runLockOversub(&mc, []bool{true})
	if err != nil {
		return err
	}
	if len(o.checks) > 0 {
		return fmt.Errorf("ladder: lock_oversub: %v", o.checks)
	}
	wait, hold := mergeSorted(o.segs[0].wait), mergeSorted(o.segs[0].hold)
	l.set("lock.wait_p50_us", us(wait, 50))
	l.set("lock.wait_p99_us", tailUS(wait))
	l.set("lock.hold_us", us(hold, 50))
	for name, v := range o.layer {
		l.set(name, v)
	}
	l.spans.spans = append(l.spans.spans, o.spans[0].spans...)

	o, err = runMapReadZipf(&mc, []bool{false})
	if err != nil {
		return err
	}
	if len(o.checks) > 0 {
		return fmt.Errorf("ladder: map_read_zipf: %v", o.checks)
	}
	for name, v := range o.layer {
		l.set(name, v)
	}
	return nil
}

func (l *ladder) lockRungs() {
	n := l.c.ladderOps
	m := lock.MustNew("mcscr-stp", lock.WithSeed(l.c.seed)).(lock.ContextMutex)
	l.rung("lock", "uncontended_ns", n, func() {
		for i := 0; i < n; i++ {
			m.Lock()
			m.Unlock()
		}
	})
	ctx, cancel := liveDeadlineCtx()
	defer cancel()
	l.rung("lock", "ctx_uncontended_ns", n, func() {
		for i := 0; i < n; i++ {
			if m.LockContext(ctx) == nil {
				m.Unlock()
			}
		}
	})

	// The paper's curve: throughput against goroutine count, with and
	// without concurrency restriction. Each point is ladderReps fresh
	// runs, because a contended FIFO lock can settle in either of two
	// basins from one run to the next.
	p := l.c.nproc
	for _, spec := range []string{"mcscr-stp", "mcs-stp"} {
		for _, pt := range []struct {
			tag     string
			threads int
		}{{"t1", 1}, {"tP", p}, {"t16P", 16 * p}} {
			runs := make([]float64, ladderReps)
			for i := range runs {
				runs[i] = l.curvePoint(spec, pt.threads)
			}
			l.vals[fmt.Sprintf("lock.%s.ops_s.%s", spec, pt.tag)] = summarize(runs)
		}
	}
}

// curvePoint is one short lock_oversub-shaped run (same critical and
// non-critical sections, no history) and returns acquisitions per
// second.
func (l *ladder) curvePoint(spec string, threads int) float64 {
	m := lock.MustNew(spec, lock.WithSeed(l.c.seed))
	var counter uint64
	e := newEngine(1, nil)
	segs, _ := e.run(threads, 500*time.Microsecond, l.c.probe/8, l.c.probe/2, noCPU, func(w *worker) {
		for {
			a, _ := e.acc(w)
			if a == nil {
				return
			}
			spin(500)
			m.Lock()
			counter++
			spin(100)
			m.Unlock()
			a.attempted++
		}
	})
	l.sink += counter
	return float64(segs[0].attempted) / segs[0].wall.Seconds()
}

func (l *ladder) metricsRungs() {
	n := l.c.ladderOps
	var rec *metrics.Recorder
	l.rung("metrics", "record_ns", n, func() {
		rec = metrics.NewRecorder(n)
		for i := 0; i < n; i++ {
			rec.Record(i & 31)
		}
	})
	h := rec.History()
	l.rungScaled("metrics", "summarize_ms", 1, 1e6, func() {
		l.sink += uint64(metrics.Summarize(h, metrics.DefaultWindow).Admissions)
	})
}

func (l *ladder) storeRungs() error {
	n := l.c.ladderOps
	for _, name := range []string{"hashmap", "skiplist", "rbtree"} {
		var b store.Backend
		var err error
		bytes := heapDelta(func() {
			if b, err = store.New(name, store.WithSeed(l.c.seed)); err != nil {
				return
			}
			preload(l.c.keys, l.c.keys, func(k, v uint64) { b.Put(k, v) })
		})
		if err != nil {
			return err
		}
		layer := "store." + name
		l.set(layer+".bytes_per_key", bytes/float64(l.c.keys))
		l.rung(layer, "get_ns", n, func() {
			for _, k := range l.keys {
				v, _ := b.Get(k)
				l.sink += v
			}
		})
		l.rung(layer, "put_ns", n, func() {
			for _, k := range l.keys {
				b.Put(k, encodeVal(k, 2))
			}
		})
		// Every repetition deletes n distinct keys that exist: they are
		// put back, untimed, before the next one and after the last.
		refill := func() { preload(uint64(n), l.c.keys, func(k, v uint64) { b.Put(k, v) }) }
		l.rungPrep(layer, "delete_ns", n, refill, func() {
			for rank := uint64(0); rank < uint64(n); rank++ {
				b.Delete(rankKey(rank, l.c.keys))
			}
		})
		refill()
		if ob, ok := b.(store.Ordered); ok {
			scans := n / 64
			l.rung(layer, "scan64_ns", scans, func() {
				for _, k := range l.keys[:scans] {
					ob.Scan(k, k+63, func(_, v uint64) bool {
						l.sink += v
						return true
					})
				}
			})
		}
		runtime.KeepAlive(b)
	}
	return nil
}

func (l *ladder) optimisticRungs() {
	n := l.c.ladderOps
	var s optimistic.Seq
	l.rung("optimistic", "seq_read_ns", n, func() {
		for i := 0; i < n; i++ {
			if st, ok := s.ReadBegin(); ok && s.Validate(st) {
				l.sink++
			}
		}
	})
	l.rung("optimistic", "seq_write_ns", n, func() {
		for i := 0; i < n; i++ {
			s.WriteBegin()
			s.WriteEnd()
		}
	})
	e := optimistic.NewEpoch()
	l.rung("optimistic", "pin_ns", n, func() {
		for i := 0; i < n; i++ {
			e.Pin().Unpin()
		}
	})
}

// loadedMap builds a Map preloaded like the workloads'.
func (l *ladder) loadedMap(cfg shard.Config) (*shard.Map, error) {
	cfg.Seed = l.c.seed
	m, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	preload(l.c.keys, l.c.keys, func(k, v uint64) { m.Put(k, v) })
	return m, nil
}

func (l *ladder) shardRungs() error {
	n := l.c.ladderOps
	m, err := l.loadedMap(shard.Config{Stripes: 16})
	if err != nil {
		return err
	}
	l.rung("shard", "get_ns", n, func() {
		for _, k := range l.keys {
			v, _ := m.Get(k)
			l.sink += v
		}
	})
	bg := context.Background()
	l.rung("shard", "get_ctx_ns", n, func() {
		for _, k := range l.keys {
			v, _, _ := m.GetContext(bg, k)
			l.sink += v
		}
	})
	ctx, cancel := liveDeadlineCtx()
	defer cancel()
	getDeadline := func() {
		for _, k := range l.keys {
			v, _, _ := m.GetContext(ctx, k)
			l.sink += v
		}
	}
	l.rung("shard", "get_deadline_ns", n, getDeadline)
	l.set("shard.allocs_per_get_deadline", mallocs(getDeadline)/float64(n))
	l.rung("shard", "put_ns", n, func() {
		for _, k := range l.keys {
			m.Put(k, encodeVal(k, 2))
		}
	})
	l.rung("shard", "put_deadline_ns", n, func() {
		for _, k := range l.keys {
			m.PutContext(ctx, k, encodeVal(k, 3)) //nolint:errcheck // the deadline is a day away
		}
	})
	refill := func() { preload(uint64(n), l.c.keys, func(k, v uint64) { m.Put(k, v) }) }
	l.rungPrep("shard", "delete_ns", n, refill, func() {
		for rank := uint64(0); rank < uint64(n); rank++ {
			m.Delete(rankKey(rank, l.c.keys))
		}
	})
	refill()
	const snaps = 256
	l.rungScaled("shard", "snapshot_lite_us", snaps, 1e3, func() {
		for i := 0; i < snaps; i++ {
			s, _ := m.SnapshotLite(bg)
			l.sink += uint64(s.Len)
		}
	})

	om, err := l.loadedMap(shard.Config{Stripes: 16, ReadPath: "optimistic"})
	if err != nil {
		return err
	}
	l.rung("shard", "get_optimistic_ns", n, func() {
		for _, k := range l.keys {
			v, _ := om.Get(k)
			l.sink += v
		}
	})

	sm, err := l.loadedMap(shard.Config{Stripes: 2, BackendSpec: "skiplist"})
	if err != nil {
		return err
	}
	scans := n / 64
	l.rungScaled("shard", "scan64_us", scans, 1e3, func() {
		for _, k := range l.keys[:scans] {
			sm.Scan(k, k+63, func(_, v uint64) bool { //nolint:errcheck // the backend is ordered
				l.sink += v
				return true
			})
		}
	})
	return nil
}

func (l *ladder) wireRungs() {
	n := l.c.ladderOps
	buf := make([]byte, 0, 4096)
	allocs := mallocs(func() {
		l.rung("wire", "encode_req_ns", n, func() {
			for _, k := range l.keys {
				buf = wire.AppendGet(buf[:0], 1, 100_000, k)
			}
		})
		req := append([]byte(nil), buf...)
		l.rung("wire", "decode_req_ns", n, func() {
			for range l.keys {
				h, _ := wire.ParseReqHeader(req)
				k, _ := wire.ParseKey(req[wire.ReqHeaderSize : wire.ReqHeaderSize+int(h.Len)])
				l.sink += k
			}
		})
		l.rung("wire", "encode_resp_ns", n, func() {
			for _, k := range l.keys {
				buf = wire.AppendGetResp(buf[:0], true, k)
			}
		})
		resp := append([]byte(nil), buf...)
		l.rung("wire", "decode_resp_ns", n, func() {
			for range l.keys {
				h, _ := wire.ParseRespHeader(resp)
				v, _, _ := wire.ParseGetResp(resp[wire.RespHeaderSize : wire.RespHeaderSize+int(h.Len)])
				l.sink += v
			}
		})
		scans := n / 64
		l.rungScaled("wire", "scan_resp_ns_per_pair", scans, 64, func() {
			for _, k := range l.keys[:scans] {
				out, start := wire.BeginScanResp(buf[:0])
				for j := uint64(0); j < 64; j++ {
					out = wire.AppendScanPair(out, k+j, k)
				}
				buf = wire.EndScanResp(out, start)
				wire.ParseScanResp(buf[wire.RespHeaderSize:], func(_, v uint64) bool { //nolint:errcheck // built two lines up
					l.sink += v
					return true
				})
			}
		})
	})
	// The rungs themselves allocate a dozen slices (frame copies, per-rung
	// samples) over 4n+ operations; one allocation per op would read 1.
	l.set("wire.allocs_per_op", allocs/float64(4*n))
}

// pipeline sends one frame per key through a sliding window and reads
// every response, checking only the framing: the ladder times the
// server, the workloads check the answers.
func pipeline(cn *conn, keys []uint64, frame func(dst []byte, key uint64) []byte) error {
	var hb [wire.RespHeaderSize]byte
	next := 0
	return cn.slide(func() bool {
		if next == len(keys) {
			return false
		}
		cn.wbuf = frame(cn.wbuf, keys[next])
		next++
		return true
	}, func() error {
		if _, err := io.ReadFull(cn.br, hb[:]); err != nil {
			return err
		}
		h, err := wire.ParseRespHeader(hb[:])
		if err != nil {
			return err
		}
		if h.Status != wire.StatusOK {
			return fmt.Errorf("ladder: response status %v", h.Status)
		}
		_, err = cn.br.Discard(int(h.Len))
		return err
	})
}

func (l *ladder) serverRungs() (err error) {
	n := l.c.ladderOps
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Stripes: 16, Seed: l.c.seed})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		if derr := srv.Drain(); err == nil {
			err = derr
		}
	}()
	preload(l.c.keys, l.c.keys, func(k, v uint64) { srv.Map().Put(k, v) })

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return err
	}
	cl := wire.NewClient(nc)
	defer cl.Close()
	cl.Class = 1
	// A synchronous round trip is tens of microseconds: a sixteenth of
	// the stream keeps these two rungs to about a second.
	few := l.keys[:max(n/16, 1)]
	var rtErr error
	l.rungScaled("server", "ping_rtt_us", len(few), 1e3, func() {
		for range few {
			if err := cl.Ping(); err != nil {
				rtErr = err
			}
		}
	})
	l.rungScaled("server", "sync_get_rtt_us", len(few), 1e3, func() {
		for _, k := range few {
			v, _, err := cl.Get(k, time.Now().Add(100*time.Millisecond))
			if err != nil {
				rtErr = err
			}
			l.sink += v
		}
	})
	if rtErr != nil {
		return fmt.Errorf("ladder: synchronous round trip: %w", rtErr)
	}

	cn, err := dial(srv.Addr(), 0, l.c.keys, 0, false)
	if err != nil {
		return err
	}
	defer cn.nc.Close()
	var pipeErr error
	rungPipe := func(name string, frame func([]byte, uint64) []byte) func() {
		run := func() {
			if err := pipeline(cn, l.keys, frame); err != nil {
				pipeErr = err
			}
		}
		l.rung("server", name, n, run)
		return run
	}
	rungPipe("pipelined_ping_ns", func(dst []byte, _ uint64) []byte { return wire.AppendPing(dst) })
	get := rungPipe("pipelined_get_ns", func(dst []byte, k uint64) []byte { return wire.AppendGet(dst, 1, 0, k) })
	getDl := rungPipe("pipelined_get_deadline_ns", func(dst []byte, k uint64) []byte { return wire.AppendGet(dst, 1, 100_000, k) })
	l.set("server.allocs_per_get", mallocs(get)/float64(n))
	l.set("server.allocs_per_get_deadline", mallocs(getDl)/float64(n))
	if pipeErr != nil {
		return fmt.Errorf("ladder: pipelined round trip: %w", pipeErr)
	}

	// How late the open-loop generator runs, against this in-process
	// server: the same dispatcher and connection loop served_openloop
	// uses, for one segment.
	late, err := l.openLoopLateness(srv.Addr())
	if err != nil {
		return err
	}
	late = mergeSorted(late)
	l.set("loadgen.late_p50_us", us(late, 50))
	l.set("loadgen.late_p99_us", tailUS(late))
	return nil
}

// openLoopLateness runs served_openloop's generator for one segment
// against addr and returns every request's send lateness.
func (l *ladder) openLoopLateness(addr string) ([]int64, error) {
	spec := openLoopSpec(l.c)
	stream := genStream(l.c.seed, 0, spec)
	conns := make([]*conn, l.c.nproc)
	for i := range conns {
		cn, err := dial(addr, i, l.c.keys, spec.privN, spec.mix.del > 0)
		if err != nil {
			return nil, err
		}
		defer cn.nc.Close()
		conns[i] = cn
	}
	r := openLoop(l.c, newEngine(1, nil), conns, l.c.probe/4, l.c.probe,
		noCPU, stream, privBase(l.c.keys, 0, spec.privN))
	if r.broken.err != nil {
		return nil, fmt.Errorf("ladder: open loop: %w", r.broken.err)
	}
	if r.segs[0].failed > 0 {
		return nil, fmt.Errorf("ladder: open loop: %d requests failed", r.segs[0].failed)
	}
	return r.segs[0].late, nil
}

// derive computes every metric that is arithmetic on rungs: a layer's
// self time is its rung minus the rungs beneath it, and the budget
// splits one synchronous deadlined GET round trip across the layers,
// with the socket — syscalls, wake-ups, scheduling — as whatever the
// rungs do not explain, so the rows sum to the round trip.
func (l *ladder) derive() {
	l.set("lock.cr_speedup", l.get("lock.mcscr-stp.ops_s.t16P")/l.get("lock.mcs-stp.ops_s.t16P"))
	l.set("shard.self_get_ns", l.get("shard.get_ns")-l.get("lock.uncontended_ns")-l.get("store.hashmap.get_ns"))
	l.set("shard.self_deadline_ns", l.get("shard.get_deadline_ns")-l.get("shard.get_ns"))
	l.set("wire.codec_get_ns", l.get("wire.encode_req_ns")+l.get("wire.decode_req_ns")+
		l.get("wire.encode_resp_ns")+l.get("wire.decode_resp_ns"))
	l.set("server.dispatch_get_ns", l.get("server.pipelined_get_deadline_ns")-l.get("server.pipelined_ping_ns"))
	l.set("server.self_deadline_ns", l.get("server.dispatch_get_ns")-l.get("shard.get_deadline_ns")-l.get("wire.codec_get_ns"))

	store := l.get("store.hashmap.get_ns")
	lck := l.get("lock.ctx_uncontended_ns")
	shardSelf := l.get("shard.get_deadline_ns") - lck - store
	wireT := l.get("wire.codec_get_ns")
	srv := l.get("server.self_deadline_ns")
	total := l.get("server.sync_get_rtt_us") * 1e3
	l.set("budget.get_deadline.store_ns", store)
	l.set("budget.get_deadline.lock_ns", lck)
	l.set("budget.get_deadline.shard_ns", shardSelf)
	l.set("budget.get_deadline.wire_ns", wireT)
	l.set("budget.get_deadline.server_ns", srv)
	l.set("budget.get_deadline.socket_ns", total-store-lck-shardSelf-wireT-srv)
}
