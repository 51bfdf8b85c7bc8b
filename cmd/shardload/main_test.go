package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/server"
	"repro/wire"
)

func startServer(t *testing.T, backend string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Stripes: 2, BackendSpec: backend})
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

// TestScanAccountingMatchesShardbench pins the two places shardload's
// scan accounting used to disagree with shardbench's under the shared
// benchfmt schema: a scan covers scan_span keys, not scan_span+1, and a
// refused scan is not a scan.
func TestScanAccountingMatchesShardbench(t *testing.T) {
	ordered := startServer(t, "skiplist")
	for k := uint64(0); k < 256; k++ {
		ordered.Map().Put(k, k)
	}
	cl, err := wire.Dial(ordered.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n, err := scanOnce(cl, 10, 16, time.Time{}); err != nil || n != 16 {
		t.Fatalf("scanOnce over dense keys with span 16 = %d pairs, %v; want 16", n, err)
	}

	unordered := startServer(t, "hashmap")
	c := config{addr: unordered.Addr(), conns: 1, scanFrac: 1, scanSpan: 16, keys: 256, dist: "uniform", classes: 1, seed: 1}
	var cnt counters
	var stop atomic.Bool
	go func() {
		for start := time.Now(); cnt.rejected.Load() < 10 && time.Since(start) < 10*time.Second; {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	runWorker(c, 0, &cnt, &stop)
	if cnt.rejected.Load() == 0 || cnt.scans.Load() != 0 {
		t.Fatalf("against an unordered backend: %d scans counted, %d rejected; want 0 scans, every one rejected",
			cnt.scans.Load(), cnt.rejected.Load())
	}
}
