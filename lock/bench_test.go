package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stpLocks enumerates the registered queue locks, whose waiters park —
// the ones whose unlock can find its successor parked. tas and ticket
// never park; null never waits.
func stpLocks() []string {
	var names []string
	for _, n := range Names() {
		if n != "null" && n != "tas" && n != "ticket" {
			names = append(names, n)
		}
	}
	return names
}

var benchSink atomic.Uint64

// benchSpin is the benchmark harness's unit of synthetic work.
func benchSpin(n int) {
	s := benchSink.Load()
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	benchSink.Store(s)
}

// BenchmarkHandoff is lock_oversub without the harness: 16 goroutines per
// P circulate over one lock, 500 spins outside and 100 inside. It uses
// only the exported API, so the file also builds against an older commit
// for a before/after. sync.Mutex is the bystander row.
func BenchmarkHandoff(b *testing.B) {
	workers := 16 * runtime.GOMAXPROCS(0)
	for _, name := range append(stpLocks(), "sync.Mutex") {
		b.Run(name, func(b *testing.B) {
			var m sync.Locker = new(sync.Mutex)
			if name != "sync.Mutex" {
				m = MustNew(name + "?seed=1")
			}
			per := b.N/workers + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						benchSpin(500)
						m.Lock()
						benchSpin(100)
						m.Unlock()
					}
				}()
			}
			wg.Wait()
			if in, ok := m.(Instrumented); ok {
				s, ops := in.Stats(), float64(per*workers)
				b.ReportMetric(float64(s.Parks)/ops, "parks/op")
				b.ReportMetric(float64(s.FastPath)/ops, "fastpath_frac")
			}
		})
	}
}
