package lock

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestWithStatsDisabled drives every lock with instrumentation off: the
// locks must still provide exclusion and report an all-zero snapshot.
func TestWithStatsDisabled(t *testing.T) {
	type statser interface{ Stats() core.Snapshot }
	off := map[string]func() Mutex{
		"TAS":      func() Mutex { return NewTAS(WithStats(false)) },
		"MCS":      func() Mutex { return NewMCS(WithStats(false)) },
		"MCSCR":    func() Mutex { return NewMCSCR(WithStats(false), WithSeed(1)) },
		"LIFOCR":   func() Mutex { return NewLIFOCR(WithStats(false), WithSeed(1)) },
		"LOITER":   func() Mutex { return NewLOITER(WithStats(false), WithSeed(1)) },
		"MCSCR-CR": func() Mutex { return MustNew("mcscr-stp?cr=true&stats=false&seed=1") },
	}
	for name, build := range off {
		t.Run(name, func(t *testing.T) {
			m := build()
			var shared int
			runWithTimeout(t, 60e9, func() {
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 500; i++ {
							m.Lock()
							shared++
							m.Unlock()
						}
					}()
				}
				wg.Wait()
			})
			if shared != 4*500 {
				t.Fatalf("lost updates with stats disabled: %d", shared)
			}
			if snap := m.(statser).Stats(); snap != (core.Snapshot{}) {
				t.Fatalf("disabled stats reported events: %+v", snap)
			}
		})
	}
	l := NewLOITER(WithStats(false))
	if got := l.InnerStats(); got != (core.Snapshot{}) {
		t.Fatalf("LOITER inner stats not disabled: %+v", got)
	}
}

// TestZeroValueTASUninstrumented pins the contract condvar and semaphore
// rely on: a zero-value TAS is a working, instrumentation-free lock.
func TestZeroValueTASUninstrumented(t *testing.T) {
	var m TAS
	m.Lock()
	if m.TryLock() {
		t.Fatal("TryLock on held zero-value TAS succeeded")
	}
	m.Unlock()
	if snap := m.Stats(); snap != (core.Snapshot{}) {
		t.Fatalf("zero-value TAS counted events: %+v", snap)
	}
}

// TestStatsStriped checks the default-constructed locks carry striped
// stats that sum correctly across goroutines.
func TestStatsStriped(t *testing.T) {
	m := NewMCSCR(WithSeed(2))
	const goroutines, iters = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if s.Acquires != goroutines*iters {
		t.Fatalf("acquires=%d want %d", s.Acquires, goroutines*iters)
	}
	if s.FastPath+s.SlowPath != s.Acquires {
		t.Fatalf("fast+slow=%d want %d", s.FastPath+s.SlowPath, s.Acquires)
	}
}
