// Package server implements shardd's serving core: it binds a
// shard.Map behind the wire protocol, carries each request's class and
// deadline from the socket to the stripe lock, and exposes the map's
// snapshot/delta/chaos counters on a text-exposition /metrics endpoint.
// cmd/shardd is a thin flag-and-signal wrapper; the package exists so
// the race end-to-end tests can run a real server in-process on a
// loopback listener.
//
// Every accepted connection is served at once on its own goroutine
// with a pipelining read loop (responses in request order, batched
// through a buffered writer that flushes when the readable buffer
// drains). Concurrency is restricted at the stripe lock, per request,
// not per connection.
//
// Graceful drain (SIGTERM in cmd/shardd, Drain here) closes the
// listeners, lets every in-flight and already-buffered request finish
// within a grace window, flushes each connection's write buffer, and
// only then stops the metrics endpoint — no response a client was owed
// is dropped.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/fault"
	"repro/shard"
	"repro/wire"
)

// Config configures a Server. Zero values pick the shard.Map defaults.
type Config struct {
	// Addr is the wire listen address ("127.0.0.1:0" for an ephemeral
	// test port). Empty means ":7070".
	Addr string
	// MetricsAddr is the /metrics HTTP listen address. Empty disables
	// the endpoint.
	MetricsAddr string

	// Stripes, LockSpec, BackendSpec, Seed, HistoryCap, ReadPath
	// configure the served shard.Map (see shard.Config). ReadPath empty
	// or "optimistic" serves validated Gets without taking a stripe
	// lock wherever the backend supports it; "locked" sends every Get
	// through the stripe lock.
	Stripes     int
	LockSpec    string
	BackendSpec string
	Seed        uint64
	HistoryCap  int
	ReadPath    string

	// DrainGrace bounds how long Drain waits for in-flight requests
	// (default 2s).
	DrainGrace time.Duration

	// MetricsInterval is the /metrics sampler cadence (default 1s). The
	// handler serves the sampler's cache; it never snapshots inline.
	MetricsInterval time.Duration
}

// Server serves one shard.Map over the wire protocol.
type Server struct {
	cfg  Config
	m    *shard.Map
	ln   net.Listener
	mln  net.Listener
	hsrv *http.Server

	// acceptCtx ends when Drain begins and stops the /metrics sampler.
	// Op contexts do NOT derive from it — in-flight requests drain,
	// they are not cancelled.
	acceptCtx    context.Context
	acceptCancel context.CancelFunc

	mu sync.Mutex
	//lockcheck:guardedby mu
	conns map[net.Conn]struct{}
	//lockcheck:guardedby mu
	draining bool

	wg  sync.WaitGroup // accept loop + per-connection serve loops
	mwg sync.WaitGroup // metrics sampler + http server

	// clients hands each connection its client id (serveConn).
	clients atomic.Int64

	// faultMu orders fault arm/disarm verbs; faultSet is the currently
	// installed set (nil until the first arm).
	faultMu sync.Mutex
	//lockcheck:guardedby faultMu
	faultSet *fault.Set

	// metricsCache is the sampler-maintained snapshot+delta the
	// /metrics handler renders (nil until the first sample).
	metricsCache atomic.Pointer[metricsSample]

	// Server-level counters, exposed on /metrics.
	accepted  atomic.Uint64 // connections accepted
	active    atomic.Int64  // connections currently served
	ops       atomic.Uint64 // frames served (all opcodes)
	badFrames atomic.Uint64 // connections dropped for malformed framing
}

// New builds a Server and its map; nothing listens yet — call Start.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":7070"
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = time.Second
	}
	m, err := shard.New(shard.Config{
		Stripes:     cfg.Stripes,
		LockSpec:    cfg.LockSpec,
		BackendSpec: cfg.BackendSpec,
		Seed:        cfg.Seed,
		HistoryCap:  cfg.HistoryCap,
		ReadPath:    cfg.ReadPath,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		m:     m,
		conns: make(map[net.Conn]struct{}),
	}
	s.acceptCtx, s.acceptCancel = context.WithCancel(context.Background())
	return s, nil
}

// Map returns the served map (tests seed and assert through it).
func (s *Server) Map() *shard.Map { return s.m }

// Start binds the listeners, starts the accept loop and the metrics
// sampler/endpoint (if configured). It returns once the listeners are
// bound, so Addr is valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.MetricsAddr != "" {
		mln, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.mln = mln
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", s.handleMetrics)
		s.hsrv = &http.Server{Handler: mux}
		s.mwg.Add(2)
		go func() {
			defer s.mwg.Done()
			s.hsrv.Serve(mln) //nolint:errcheck // ErrServerClosed on Drain
		}()
		go s.sampleLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound wire address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr returns the bound /metrics address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.mln == nil {
		return ""
	}
	return s.mln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Drain
		}
		s.accepted.Add(1)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) //nolint:errcheck
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.serveEntry(conn)
	}
}

// serveEntry runs the serve loop and releases the connection after it.
func (s *Server) serveEntry(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	s.active.Add(1)
	defer s.active.Add(-1)
	s.serveConn(conn)
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Drain shuts the server down gracefully: stop accepting, give every
// served connection DrainGrace to finish the frames it has already
// received (responses are flushed, nothing owed is dropped), then stop
// the metrics endpoint. Safe to call once.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	deadline := time.Now().Add(s.cfg.DrainGrace)
	for conn := range s.conns {
		// The serve loop's next blocking read fails at the deadline; any
		// frame that arrives (or was buffered) before then is served.
		conn.SetReadDeadline(deadline) //nolint:errcheck
	}
	s.mu.Unlock()

	s.ln.Close()
	s.acceptCancel() // stop the /metrics sampler
	s.wg.Wait()      // every serve loop flushed and exited

	if s.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.hsrv.Shutdown(ctx) //nolint:errcheck
		s.mwg.Wait()
	}
	return nil
}

// Info renders the "key=value" lines the INFO verb returns: the map's
// identity, fixed at New and printed whatever state its stripes are in,
// then its counters.
func (s *Server) info() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "server=shardd\nwire_version=%d\n", wire.Version)
	fmt.Fprintf(&b, "stripes=%d\n", s.m.Stripes())
	fmt.Fprintf(&b, "ordered=%t\n", s.m.Ordered())
	fmt.Fprintf(&b, "read_path=%s\n", s.m.ReadPath())
	fmt.Fprintf(&b, "lock=%s\n", s.m.LockSpec())
	fmt.Fprintf(&b, "backend=%s\n", s.m.BackendSpec())
	// The timeout bounds stripe acquisition inside SnapshotLite, so an
	// INFO verb is never held hostage by a collapsed stripe; it then
	// carries no counter lines.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if snap, err := s.m.SnapshotLite(ctx); err == nil {
		// The whole cumulative counter set, one <name>= line each: a load
		// generator parses it back (shard.ParseCounters) before and after
		// its run and reports the difference, without scraping /metrics.
		b.WriteString(snap.Counters.Text())
	}
	return []byte(b.String())
}

// armFault installs and arms a fault set from spec, replacing (and
// disarming) any previous set.
func (s *Server) armFault(spec string) error {
	set, err := fault.New(spec)
	if err != nil {
		return err
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.faultSet != nil {
		s.faultSet.Disarm()
	}
	s.faultSet = set
	s.m.SetInjector(set)
	set.Arm()
	return nil
}

// disarmFault stops all injection (no-op when nothing is armed).
func (s *Server) disarmFault() {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.faultSet != nil {
		s.faultSet.Disarm()
	}
}

// faultStats renders the armed set's data-plane evidence counters. The
// server never calls Set.Key or Set.ExtraThreads, so reroutes and the
// surge peak are the load generator's to report, not the server's.
func (s *Server) faultStats() []byte {
	s.faultMu.Lock()
	set := s.faultSet
	s.faultMu.Unlock()
	var b strings.Builder
	if set == nil {
		b.WriteString("armed=false\n")
		return []byte(b.String())
	}
	st := set.Stats()
	fmt.Fprintf(&b, "armed=%t\nspec=%s\n", set.Active(), set)
	fmt.Fprintf(&b, "stalls=%d\nstall_ms=%d\n", st.Stalls, st.StallTime.Milliseconds())
	return []byte(b.String())
}
