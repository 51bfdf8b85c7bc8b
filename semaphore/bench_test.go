package semaphore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var benchSink atomic.Uint64

func benchSpin(n int) {
	s := benchSink.Load()
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	benchSink.Store(s)
}

// BenchmarkPermitHandoff is the buffer-pool shape (§6.11) on goroutines:
// 16 per P circulate over a few permits, 500 spins without one and 100
// holding it, so nearly every Release conveys its permit to a parked
// waiter. A buffered channel of the same capacity is the bystander row
// (ROADMAP item 3's comparator). Exported API only, so the file builds
// against an older commit for a before/after.
func BenchmarkPermitHandoff(b *testing.B) {
	workers := 16 * runtime.GOMAXPROCS(0)
	for _, permits := range []int{1, 4} {
		run := func(name string, acquire, release func()) {
			b.Run(name, func(b *testing.B) {
				per := b.N/workers + 1
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							benchSpin(500)
							acquire()
							benchSpin(100)
							release()
						}
					}()
				}
				wg.Wait()
			})
		}
		suffix := fmt.Sprintf("/permits=%d", permits)
		fifo := NewFIFO(permits)
		run("fifo"+suffix, fifo.Acquire, fifo.Release)
		lifo := NewMostlyLIFO(permits)
		run("mostly-lifo"+suffix, lifo.Acquire, lifo.Release)
		ch := make(chan struct{}, permits)
		run("chan"+suffix, func() { ch <- struct{}{} }, func() { <-ch })
	}
}
