package condvar

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/lock"
)

var benchSink atomic.Uint64

func benchSpin(n int) {
	s := benchSink.Load()
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	benchSink.Store(s)
}

// waitSignaler is what the bounded queue needs of a condition variable;
// *Cond and *sync.Cond both have it.
type waitSignaler interface {
	Wait()
	Signal()
}

// BenchmarkProdCons is the §6.7 bounded queue on goroutines: 12 producers
// and 3 consumers over one mcscr-stp mutex and two condition variables,
// one op per message. "under" signals while holding the mutex (the usual
// discipline, and examples/pipeline's); "after" signals once it is
// released. sync.Cond over the same mutex is the bystander row (ROADMAP
// item 3's comparator). Exported API only, so the file builds against an
// older commit for a before/after.
func BenchmarkProdCons(b *testing.B) {
	const producers, consumers, capacity = 12, 3, 64
	type conds func(l sync.Locker) (notEmpty, notFull waitSignaler)
	kinds := []struct {
		name string
		make conds
	}{
		{"fifo", func(l sync.Locker) (waitSignaler, waitSignaler) { return NewFIFO(l), NewFIFO(l) }},
		{"mostly-lifo", func(l sync.Locker) (waitSignaler, waitSignaler) { return New(l, MostlyLIFO, 1), New(l, MostlyLIFO, 2) }},
		{"sync.Cond", func(l sync.Locker) (waitSignaler, waitSignaler) { return sync.NewCond(l), sync.NewCond(l) }},
	}
	for _, k := range kinds {
		for _, after := range []bool{false, true} {
			name := k.name + "/under"
			if after {
				name = k.name + "/after"
			}
			b.Run(name, func(b *testing.B) {
				m := lock.MustNew("mcscr-stp?seed=7")
				notEmpty, notFull := k.make(m)
				queue := 0
				// Each side claims a message before it touches the queue, so
				// exactly b.N are produced and consumed and nobody is left
				// waiting for one that will never come.
				var toProduce, toConsume atomic.Int64
				toProduce.Store(int64(b.N))
				toConsume.Store(int64(b.N))
				// move is one side's step: wait for room (or a message),
				// change the queue, tell the other side.
				move := func(claims *atomic.Int64, blocked func() bool, wait, wake waitSignaler, delta, ncs int) {
					for claims.Add(-1) >= 0 {
						benchSpin(ncs)
						m.Lock()
						for blocked() {
							wait.Wait()
						}
						queue += delta
						if !after {
							wake.Signal()
						}
						m.Unlock()
						if after {
							wake.Signal()
						}
					}
				}
				var wg sync.WaitGroup
				b.ResetTimer()
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						move(&toProduce, func() bool { return queue >= capacity }, notFull, notEmpty, +1, 500)
					}()
				}
				for c := 0; c < consumers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						move(&toConsume, func() bool { return queue == 0 }, notEmpty, notFull, -1, 100)
					}()
				}
				wg.Wait()
				if queue != 0 {
					b.Fatalf("queue holds %d messages after %d produced and consumed", queue, b.N)
				}
			})
		}
	}
}
