package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/server"
	"repro/shard"
	"repro/store"
	"repro/wire"
)

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func dial(t *testing.T, s *server.Server) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestE2ERoundTrips covers the data-plane verbs and the typed error
// replies over a real loopback connection.
func TestE2ERoundTrips(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 4, BackendSpec: "skiplist"})
	defer s.Drain()
	cl := dial(t, s)

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.Put(10, 100, time.Time{})
	if err != nil || !fresh {
		t.Fatalf("Put = %v, %v", fresh, err)
	}
	if fresh, _ := cl.Put(10, 101, time.Time{}); fresh {
		t.Fatal("second put reported fresh")
	}
	val, found, err := cl.Get(10, time.Time{})
	if err != nil || !found || val != 101 {
		t.Fatalf("Get = %d, %v, %v", val, found, err)
	}
	if _, found, _ := cl.Get(11, time.Time{}); found {
		t.Fatal("absent key found")
	}
	for k := uint64(20); k < 30; k++ {
		if _, err := cl.Put(k, k*2, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	n, err := cl.Scan(20, 29, 0, time.Time{}, func(k, v uint64) bool {
		if v != k*2 {
			t.Fatalf("scan pair %d=%d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if err != nil || n != 10 || len(keys) != 10 {
		t.Fatalf("Scan = %d pairs (%d seen), %v", n, len(keys), err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
	// Bounded scan: max truncates.
	if n, _ := cl.Scan(20, 29, 3, time.Time{}, func(k, v uint64) bool { return true }); n != 3 {
		t.Fatalf("bounded scan returned %d pairs", n)
	}
	present, err := cl.Delete(10, time.Time{})
	if err != nil || !present {
		t.Fatalf("Delete = %v, %v", present, err)
	}

	// Expired deadline: typed ErrDeadline, and the server kept serving
	// the same connection afterwards.
	if _, _, err := cl.Get(20, time.Now().Add(-time.Second)); !errors.Is(err, wire.ErrDeadline) {
		t.Fatalf("expired deadline: %v", err)
	}
	// It is the only budgeted frame so far, and it never waited: one
	// attempt, one miss, exactly one lock Cancel.
	if snap := s.Map().Snapshot(); snap.DeadlineAttempts != 1 || snap.DeadlineMisses != 1 || snap.Lock.Cancels != 1 {
		t.Fatalf("expired frame: attempts %d, misses %d, cancels %d, want 1 each",
			snap.DeadlineAttempts, snap.DeadlineMisses, snap.Lock.Cancels)
	}
	if _, _, err := cl.Get(20, time.Time{}); err != nil {
		t.Fatalf("connection dead after deadline miss: %v", err)
	}

	info, err := cl.Info()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server=shardd", "stripes=4", "backend=skiplist", "ordered=true"} {
		if !strings.Contains(info, want) {
			t.Fatalf("info missing %q:\n%s", want, info)
		}
	}
}

// TestE2EHistoryCapTagsConnections: with HistoryCap set, each
// connection is one client id in the stripes' admission history, so a
// live shardd's LWSS counts connections.
func TestE2EHistoryCapTagsConnections(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 1, HistoryCap: 4096})
	defer s.Drain()
	a, b := dial(t, s), dial(t, s)
	const n = 50
	for i := uint64(0); i < n; i++ {
		for _, cl := range []*wire.Client{a, b} {
			if _, err := cl.Put(i, i, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := s.Map().Snapshot().Stripes[0].Fairness
	if f.Admissions != 2*n || f.AvgLWSS != 2 || f.RecentLWSS != 2 {
		t.Fatalf("two connections, %d puts: %+v", 2*n, f)
	}
}

// TestE2EUnorderedScan pins the ErrUnordered reply on a hashmap-backed
// server.
func TestE2EUnorderedScan(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 2, BackendSpec: "hashmap"})
	defer s.Drain()
	cl := dial(t, s)
	_, err := cl.Scan(0, 10, 0, time.Time{}, func(k, v uint64) bool { return true })
	if !errors.Is(err, wire.ErrUnordered) {
		t.Fatalf("scan on hashmap: %v", err)
	}
}

// TestE2EBadClass: a class byte outside the fixed class array is a
// typed reject, not an accounting corruption.
func TestE2EBadClass(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 2})
	defer s.Drain()
	cl := dial(t, s)
	cl.Class = shard.NumClasses // one past the end
	if _, _, err := cl.Get(1, time.Time{}); !errors.Is(err, wire.ErrBadClass) {
		t.Fatalf("bad class: %v", err)
	}
	cl.Class = 0
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection should survive a bad-class reject: %v", err)
	}
}

// TestE2EBadFrame: a malformed header gets a typed reply and the
// connection is closed — framing past it cannot be trusted.
func TestE2EBadFrame(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 2})
	defer s.Drain()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := make([]byte, wire.ReqHeaderSize)
	bad[0] = 99 // wrong version
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	var hdr [wire.RespHeaderSize]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseRespHeader(hdr[:])
	if err != nil || h.Status != wire.StatusBadFrame {
		t.Fatalf("bad frame reply: %+v, %v", h, err)
	}
	io.Copy(io.Discard, conn) // server closes after the reply
}

// TestE2EDeadlineStorm drives concurrent deadlined clients into a
// stalled stripe and checks the ledger: client-observed misses equal
// the map's DeadlineMisses, land in the right class buckets, and every
// miss reconciles to exactly one lock Cancels event — the shard layer's
// invariant, now measured across a network hop. The Gets take the locked
// path: on the default one they would be served lock-free past the
// stalled writers and never queue.
func TestE2EDeadlineStorm(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 1, LockSpec: "mcs-stp", ReadPath: "locked"})
	defer s.Drain()

	// Stall every critical section long enough that a 1ms budget
	// cannot sit out the queue.
	admin := dial(t, s)
	if err := admin.FaultArm("stall?p=1&hold=2ms"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Put(1, 1, time.Time{}); err != nil {
		t.Fatal(err)
	}

	const clients, opsEach = 4, 25
	var clientMisses, clientOps atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := wire.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			cl.Class = uint8(1 + id%2)
			for j := 0; j < opsEach; j++ {
				_, _, err := cl.Get(1, time.Now().Add(time.Millisecond))
				switch {
				case err == nil:
					clientOps.Add(1)
				case errors.Is(err, wire.ErrDeadline):
					clientMisses.Add(1)
				default:
					t.Errorf("client %d: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := admin.FaultDisarm(); err != nil {
		t.Fatal(err)
	}

	snap := s.Map().Snapshot()
	total := clientOps.Load() + clientMisses.Load()
	if total != clients*opsEach {
		t.Fatalf("lost requests: %d of %d accounted", total, clients*opsEach)
	}
	if clientMisses.Load() == 0 {
		t.Fatal("storm produced no misses — stall did not bite")
	}
	if got := int64(snap.DeadlineMisses); got != clientMisses.Load() {
		t.Fatalf("map misses %d != client-observed %d", got, clientMisses.Load())
	}
	if got := int64(snap.DeadlineAttempts); got != clients*opsEach {
		t.Fatalf("map attempts %d != %d sent", got, clients*opsEach)
	}
	// Exactly one lock cancel per miss: the reconciliation invariant.
	if snap.Lock.Cancels != snap.DeadlineMisses {
		t.Fatalf("Cancels %d != DeadlineMisses %d", snap.Lock.Cancels, snap.DeadlineMisses)
	}
	// Per-class: unclassified stayed empty, classes 1 and 2 carry it all.
	if snap.ClassDeadlineAttempts[0] != 0 {
		t.Fatalf("class 0 attempts = %d, want 0", snap.ClassDeadlineAttempts[0])
	}
	if sum := snap.ClassDeadlineAttempts[1] + snap.ClassDeadlineAttempts[2]; sum != snap.DeadlineAttempts {
		t.Fatalf("class sum %d != pooled %d", sum, snap.DeadlineAttempts)
	}

	// The wire FAULT stats verb reports the injected evidence.
	stats, err := admin.FaultStats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "armed=false") || !strings.Contains(stats, "stalls=") {
		t.Fatalf("fault stats:\n%s", stats)
	}
}

// TestE2EGracefulDrain: every request fully written to a served
// connection before drain gets its response — pipelined batches
// included — and the listener stops accepting.
func TestE2EGracefulDrain(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 2, DrainGrace: 2 * time.Second})

	const clients, frames = 3, 50
	conns := make([]*net.TCPConn, clients)
	for i := range conns {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c.(*net.TCPConn)
	}
	// Round-trip a PING on each connection first: a dialed connection
	// still in the accept queue is invisible to Drain (it dies with the
	// listener), so the guarantee under test needs each serve loop
	// running before its batch is written.
	for i, c := range conns {
		if _, err := c.Write(wire.AppendPing(nil)); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, wire.RespHeaderSize)
		if _, err := io.ReadFull(c, hdr); err != nil {
			t.Fatalf("conn %d ping: %v", i, err)
		}
		if h, err := wire.ParseRespHeader(hdr); err != nil || h.Status != wire.StatusOK {
			t.Fatalf("conn %d ping: %+v, %v", i, h, err)
		}
	}
	// Pipeline a batch of PUTs on each connection, then half-close so
	// the server sees EOF after the last frame instead of waiting out
	// the grace window.
	for i, c := range conns {
		var buf []byte
		for j := 0; j < frames; j++ {
			buf = wire.AppendPut(buf, 0, 0, uint64(i*frames+j), uint64(j))
		}
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := c.CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- s.Drain() }()

	// Every pipelined request drains with a response.
	for i, c := range conns {
		got := 0
		hdr := make([]byte, wire.RespHeaderSize)
		for {
			if _, err := io.ReadFull(c, hdr); err != nil {
				break // EOF: server flushed and closed
			}
			h, err := wire.ParseRespHeader(hdr)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, h.Len)
			if _, err := io.ReadFull(c, payload); err != nil {
				t.Fatal(err)
			}
			if h.Status != wire.StatusOK {
				t.Fatalf("conn %d resp %d: status %v", i, got, h.Status)
			}
			got++
		}
		c.Close()
		if got != frames {
			t.Fatalf("conn %d: %d responses for %d requests", i, got, frames)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.Map().Len(); got != clients*frames {
		t.Fatalf("map len %d after drain, want %d", got, clients*frames)
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestE2EMetricsEndpoint: the /metrics handler serves the sampler's
// cache — per-stripe and per-class deadline counters included — without
// touching the patient snapshot path. The Get takes the locked path, so
// its expired budget is a miss rather than a lock-free hit.
func TestE2EMetricsEndpoint(t *testing.T) {
	s := startServer(t, server.Config{Stripes: 2, MetricsAddr: "127.0.0.1:0", ReadPath: "locked"})
	defer s.Drain()
	cl := dial(t, s)
	for k := uint64(0); k < 32; k++ {
		if _, err := cl.Put(k, k, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Get(1, time.Now().Add(-time.Second)); !errors.Is(err, wire.ErrDeadline) {
		t.Fatalf("want a deadline miss on the books: %v", err)
	}
	s.Sample() // deterministic: don't wait out the sampler cadence

	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"shardd_ops_total",
		"shardd_connections_accepted_total 1",
		"shardd_deadline_misses_total 1",
		fmt.Sprintf("shardd_len %d", 32),
		"shardd_stripe_deadline_attempts_total{stripe=\"0\"}",
		"shardd_stripe_deadline_misses_total{stripe=",
		"shardd_class_deadline_misses_total{class=\"0\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// countingScan is the skiplist backend with its Scan callback counted:
// every pair a stripe visits under its lock is one tick of scanVisits.
type countingScan struct{ store.Ordered }

var scanVisits atomic.Int64

func (c countingScan) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	c.Ordered.Scan(lo, hi, func(k, v uint64) bool {
		scanVisits.Add(1)
		return fn(k, v)
	})
}

func init() {
	store.Register(store.Registration{
		Name:    "countingscan",
		Summary: "test-only: skiplist that counts pairs visited by Scan",
		Build: func(opts ...store.Option) store.Backend {
			return countingScan{store.MustNew("skiplist", opts...).(store.Ordered)}
		},
	})
}

// TestE2EScanMaxBoundsStripeWork: a SCAN frame's max bounds the work
// each stripe does under its lock, not just the reply. A full-domain
// `max=1` scan over a large map must visit a couple of pairs per stripe
// (one kept, one to learn the stripe holds more) — not copy the map.
func TestE2EScanMaxBoundsStripeWork(t *testing.T) {
	const stripes, keys = 4, 20000
	s := startServer(t, server.Config{Stripes: stripes, BackendSpec: "countingscan"})
	defer s.Drain()
	for k := uint64(0); k < keys; k++ {
		s.Map().Put(k, k+1)
	}
	cl := dial(t, s)
	for _, max := range []uint32{1, 64} {
		scanVisits.Store(0)
		var first uint64
		n, err := cl.Scan(0, ^uint64(0), max, time.Time{}, func(k, v uint64) bool {
			if k == 0 {
				first = v
			}
			return true
		})
		if err != nil || n != int(max) || first != 1 {
			t.Fatalf("SCAN 0 ^0 max=%d = %d pairs (key 0 = %d), %v", max, n, first, err)
		}
		if got, bound := scanVisits.Load(), int64(stripes*(max+1)); got > bound {
			t.Fatalf("max=%d visited %d pairs under stripe locks, want <= %d of %d", max, got, bound, keys)
		}
	}
}
