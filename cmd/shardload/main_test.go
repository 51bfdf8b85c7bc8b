package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fault"
	"repro/internal/loadgen"
	"repro/server"
	"repro/shard"
	"repro/wire"
)

func startServer(t *testing.T, backend, readPath string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Stripes: 2, BackendSpec: backend, ReadPath: readPath})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Drain(); err != nil {
			t.Error(err)
		}
	})
	return srv
}

// spy records the requests a dialed target is handed.
type spy struct {
	loadgen.Target
	mu   *sync.Mutex
	reqs *[]loadgen.Request
}

func (s spy) Do(r loadgen.Request) loadgen.Outcome {
	s.mu.Lock()
	*s.reqs = append(*s.reqs, r)
	s.mu.Unlock()
	return s.Target.Do(r)
}

func spyDial(addr string) (loadgen.Dial, *[]loadgen.Request) {
	var mu sync.Mutex
	reqs := new([]loadgen.Request)
	dial := loadgen.WireDial(addr)
	return func(id int) (loadgen.Target, error) {
		t, err := dial(id)
		return spy{t, &mu, reqs}, err
	}, reqs
}

// TestScanAccountingMatchesShardbench pins the two places shardload's
// scan accounting once disagreed with the in-process generator it
// replaced (cmd/shardbench, since deleted): a scan covers scan_span keys,
// not scan_span+1 (the wire's bounds are inclusive), and a refused scan
// is not a scan — nor an op or a deadline attempt.
func TestScanAccountingMatchesShardbench(t *testing.T) {
	traffic := loadgen.Traffic{
		Workers: 1, Duration: 100 * time.Millisecond, Keys: 256, Dist: "uniform",
		ScanFrac: 1, ScanSpan: 16, Deadline: time.Second, DeadlineFrac: 1, Classes: 1, Seed: 1,
	}

	ordered := startServer(t, "skiplist", "")
	for k := uint64(0); k < 512; k++ {
		ordered.Map().Put(k, k)
	}
	dial, reqs := spyDial(ordered.Addr())
	res := loadgen.Run(traffic, dial, nil)
	if res.Scans == 0 || res.Scans != res.Ops || res.Rejected != 0 || res.Attempts != res.Scans {
		t.Fatalf("against an ordered backend: %+v", res)
	}
	cl, err := wire.Dial(ordered.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, r := range *reqs {
		n, err := cl.Scan(r.Key, r.Arg, 0, time.Time{}, func(_, _ uint64) bool { return true })
		if err != nil || n != traffic.ScanSpan {
			t.Fatalf("scan [%d, %d] over dense keys with span %d = %d pairs, %v", r.Key, r.Arg, traffic.ScanSpan, n, err)
		}
	}

	unordered := startServer(t, "hashmap", "")
	res = loadgen.Run(traffic, loadgen.WireDial(unordered.Addr()), nil)
	if res.Rejected == 0 || res.Rejected != res.Issued || res.Scans+res.Ops+res.Attempts+res.Misses != 0 {
		t.Fatalf("against an unordered backend every scan is rejected and nothing else: %+v", res)
	}
}

// TestHarnessFaultsRunInTheGenerator: fault.Set.Key and ExtraThreads are
// hooks the server never calls, so a hotkey or surge fault armed only over
// the wire was a no-op labelled as a fault. The generator parses the spec
// too and runs the harness half itself, on the timeline it arms the
// server's half on.
func TestHarnessFaultsRunInTheGenerator(t *testing.T) {
	srv := startServer(t, "hashmap", "")
	admin, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	traffic := loadgen.Traffic{
		Workers: 2, Duration: 300 * time.Millisecond, Keys: 1024, Dist: "uniform", ReadFrac: 0.5, Seed: 1,
	}
	chaos := &loadgen.Chaos{
		Set:   fault.MustNew("hotkey?key=4242+surge?threads=3+stall?p=1&hold=100us"),
		After: 50 * time.Millisecond, For: 100 * time.Millisecond, Sample: 5 * time.Millisecond, Target: 0.05,
	}
	if err := traffic.Validate(chaos); err != nil {
		t.Fatal(err)
	}
	armOverWire(chaos, admin)
	dial, reqs := spyDial(srv.Addr())
	res := loadgen.Run(traffic, dial, chaos)
	serverStalls(res.Chaos, admin)

	hot := 0
	for _, r := range *reqs {
		if r.Key == 4242 {
			hot++
		}
	}
	cr := res.Chaos
	if hot == 0 || cr.Reroutes != uint64(hot) {
		t.Fatalf("%d requests went to the hot key, chaos record says %d reroutes; want equal and > 0", hot, cr.Reroutes)
	}
	if cr.SurgePeak != 3 {
		t.Fatalf("surge_peak = %d, want 3", cr.SurgePeak)
	}
	if cr.Stalls == 0 {
		t.Fatal("no stalls reported: the server's half of the fault never ran, or its stats never came back")
	}
	if st, _ := admin.FaultStats(); strings.Contains(st, "reroutes") {
		t.Fatalf("the server reports a generator-only counter; FAULT stats:\n%s", st)
	}
}

// TestCellReportsTheRunsCounters: the counter columns of a remote cell
// are the run's difference of the server's cumulative counters, like an
// in-process cell's, and the lock events arrive at all (INFO used to
// carry one of them). The server takes the locked read path, so every op
// is at least one lock acquisition.
func TestCellReportsTheRunsCounters(t *testing.T) {
	srv := startServer(t, "hashmap", "locked")
	admin, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	traffic := loadgen.Traffic{
		Workers: 2, Duration: 100 * time.Millisecond, Keys: 256, Dist: "uniform", ReadFrac: 0.5, Seed: 1,
	}
	r, _ := runCell(traffic, nil, srv.Addr(), admin)
	if r.Ops == 0 || r.Stats["acquires"] < uint64(r.Ops) || len(r.Stats) != 11 {
		t.Errorf("%d ops, stats = %v; want all 11 lock events and at least one acquire per op", r.Ops, r.Stats)
	}
	if r.Lock != shard.DefaultLockSpec || r.Backend != "hashmap" {
		t.Errorf("identity: lock %q, backend %q", r.Lock, r.Backend)
	}
}

// TestServerInfoParses: INFO's lock= value is a whole spec, "?" and "="
// included (the default is one). parseKV must keep it intact, and
// shard.ParseCounters must read the counter lines around it.
func TestServerInfoParses(t *testing.T) {
	srv := startServer(t, "hashmap", "")
	admin, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.Put(1, 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	counters, kv := serverInfo(admin)
	if kv["lock"] != shard.DefaultLockSpec || kv["backend"] != "hashmap" {
		t.Errorf("identity: lock %q, backend %q; want %q and hashmap", kv["lock"], kv["backend"], shard.DefaultLockSpec)
	}
	if counters.Lock.Acquires == 0 {
		t.Errorf("counters after a Put read no lock acquisition: %+v", counters)
	}
}
