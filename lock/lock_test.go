package lock

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) {
	// The CI host may have a single CPU; raise GOMAXPROCS so goroutines
	// run on several OS threads and real lock contention (queue build-up,
	// parking, barging) actually occurs.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(leakcheck.Run(m))
}

// builders enumerates every real (mutual-exclusion-providing) lock in the
// package, resolved through the registry so the spec grammar itself is
// exercised by the whole suite. The queue locks carry the paper's "-STP"
// label: their waiters park (the "-S" shape is simulator-only). The two
// "-CR" entries are the queue locks under restriction at admission
// (cr=true); with more goroutines than GOMAXPROCS their surplus parks on
// the passive stack.
func builders() map[string]func() Mutex {
	specs := map[string]string{
		"TAS":          "tas",
		"MCS-STP":      "mcs-stp",
		"MCSCR-STP":    "mcscr-stp?seed=1",
		"LIFOCR-STP":   "lifocr?seed=1",
		"LOITER-STP":   "loiter?seed=1",
		"MCS-STP-CR":   "mcs-stp?cr=true&seed=1",
		"MCSCR-STP-CR": "mcscr-stp?cr=true&seed=1",
	}
	out := make(map[string]func() Mutex, len(specs))
	for name, spec := range specs {
		out[name] = func() Mutex { return MustNew(spec) }
	}
	return out
}

// runWithTimeout fails the test if fn does not finish in the deadline,
// converting a liveness bug (lost wakeup, stranded waiter) into a test
// failure instead of a hung suite.
func runWithTimeout(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out: probable lost wakeup or deadlock")
	}
}

func TestMutualExclusion(t *testing.T) {
	const goroutines = 8
	iters := 2000
	if raceEnabled {
		iters = 200 // spin loops are ~10x slower under the race detector
	}
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			var unprotected int // data race if exclusion fails
			var inside atomic.Int32
			var maxInside atomic.Int32
			runWithTimeout(t, 60*time.Second, func() {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							m.Lock()
							if v := inside.Add(1); v > maxInside.Load() {
								maxInside.Store(v)
							}
							unprotected++
							inside.Add(-1)
							m.Unlock()
						}
					}()
				}
				wg.Wait()
			})
			if unprotected != goroutines*iters {
				t.Errorf("lost updates: got %d want %d", unprotected, goroutines*iters)
			}
			if maxInside.Load() != 1 {
				t.Errorf("critical section occupancy reached %d", maxInside.Load())
			}
		})
	}
}

func TestTryLock(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			if !m.TryLock() {
				t.Fatal("TryLock on a free lock failed")
			}
			if m.TryLock() {
				t.Fatal("TryLock on a held lock succeeded")
			}
			m.Unlock()
			if !m.TryLock() {
				t.Fatal("TryLock after Unlock failed")
			}
			m.Unlock()
		})
	}
}

func TestLockUnlockSequential(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			for i := 0; i < 1000; i++ {
				m.Lock()
				m.Unlock()
			}
		})
	}
}

func TestHandoffChain(t *testing.T) {
	// Two goroutines strictly alternating through the lock exercises the
	// direct-handoff grant path (the successor is always waiting).
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			iters := 5000
			if raceEnabled {
				iters = 500
			}
			var turn atomic.Int64
			runWithTimeout(t, 60*time.Second, func() {
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							m.Lock()
							turn.Add(1)
							m.Unlock()
						}
					}()
				}
				wg.Wait()
			})
			if turn.Load() != int64(2*iters) {
				t.Fatalf("turns=%d", turn.Load())
			}
		})
	}
}

func TestNullLock(t *testing.T) {
	n := NewNull()
	n.Lock()
	n.Lock() // Null provides no exclusion; double lock must not block
	if !n.TryLock() {
		t.Fatal("Null.TryLock must always succeed")
	}
	n.Unlock()
	n.Unlock()
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	cases := map[string]Mutex{
		"TAS":    NewTAS(),
		"MCS":    NewMCS(),
		"MCSCR":  NewMCSCR(),
		"LIFOCR": NewLIFOCR(),
		"LOITER": NewLOITER(),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Unlock of unlocked mutex did not panic")
				}
			}()
			m.Unlock()
		})
	}
}

// TestLongTermFairness verifies the Bernoulli promotion mechanism: under a
// CR lock with a short fairness period every thread completes work; no
// thread is starved indefinitely.
func TestLongTermFairness(t *testing.T) {
	crLocks := map[string]func() Mutex{
		"MCSCR":  func() Mutex { return NewMCSCR(WithFairnessPeriod(50), WithSeed(7)) },
		"LIFOCR": func() Mutex { return NewLIFOCR(WithFairnessPeriod(50), WithSeed(7)) },
		"LOITER": func() Mutex { return NewLOITER(WithPatience(16), WithSeed(7)) },
		"MCS-CR": func() Mutex { return MustNew("mcs-stp?cr=true&fairness=50&seed=7") },
	}
	const goroutines = 8
	for name, build := range crLocks {
		t.Run(name, func(t *testing.T) {
			m := build()
			var counts [goroutines]atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						m.Lock()
						counts[id].Add(1)
						m.Unlock()
					}
				}(g)
			}
			time.Sleep(500 * time.Millisecond)
			close(stop)
			runWithTimeout(t, 30*time.Second, wg.Wait)
			for g := 0; g < goroutines; g++ {
				if counts[g].Load() == 0 {
					t.Errorf("goroutine %d starved (0 acquisitions)", g)
				}
			}
		})
	}
}

// TestMCSCRQuiescence checks that after all threads finish, the chain and
// the passive set have fully drained: CR must be work conserving, so no
// thread may be left stranded in the PS.
func TestMCSCRQuiescence(t *testing.T) {
	m := NewMCSCR(WithSeed(3))
	runWithTimeout(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					m.Lock()
					m.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	if ps := m.PassiveSize(); ps != 0 {
		t.Fatalf("passive set not drained: %d threads stranded", ps)
	}
	if tail := m.tail.Load(); tail != nil {
		t.Fatal("MCS chain not empty at quiescence")
	}
	s := m.Stats()
	if s.Acquires != 16*1000 {
		t.Fatalf("acquires=%d want %d", s.Acquires, 16000)
	}
}

// TestMCSCRCullsUnderContention checks the CR mechanism actually engages:
// with many threads circulating, the unlock path must cull surplus waiters
// into the passive set.
func TestMCSCRCullsUnderContention(t *testing.T) {
	m := NewMCSCR(WithSeed(5))
	runWithTimeout(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3000; i++ {
					m.Lock()
					// Yield inside the critical section so the other
					// goroutines pile onto the chain and the unlock path
					// sees surplus (intermediate) waiters to cull.
					runtime.Gosched()
					m.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	s := m.Stats()
	if s.Culls == 0 {
		t.Error("no culling under 8-way contention; CR never engaged")
	}
	if s.Reprovisions+s.Promotions == 0 {
		t.Error("threads were culled but never returned to the ACS")
	}
}

// waitUntil polls cond (yielding between polls) until it holds or the
// deadline passes, reporting whether it held.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestLOITERImpatienceHandoff drives the anti-starvation direct handoff
// deterministically. A statistical hammer is unreliable here: once the
// lost-wakeup fix wakes the standby promptly, it usually wins the freed
// lock before turning impatient (especially on few-CPU hosts). Instead
// the test orchestrates the protocol: hold the lock until a waiter
// becomes the parked standby (attempt 1), release and immediately retake
// it so the standby's next attempt fails too (attempt 2 > patience 1 →
// impatient), wait for it to park again, and unlock — the unlock path
// must now convey ownership by direct handoff (a Promotions event).
// A spin-then-park standby parks at each failed attempt, so the LOITER
// Parks counter is the progress signal. Rounds retry only the one racy
// step (retaking the lock before the woken standby).
func TestLOITERImpatienceHandoff(t *testing.T) {
	m := NewLOITER(WithPatience(1), WithArrivalSpins(1))
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		base := m.Stats()
		m.Lock()
		done := make(chan struct{})
		go func() {
			m.Lock()
			m.Unlock()
			close(done)
		}()
		// Standby registered, failed attempt 1 against our hold, parked.
		if !waitUntil(deadline, func() bool { return m.Stats().Parks > base.Parks }) {
			break
		}
		// Snapshot Parks while the standby is still parked and we still
		// hold the lock: the counter cannot move until the release below
		// wakes it, so the snapshot cannot race past the second park.
		parked1 := m.Stats().Parks
		m.Unlock()
		if !m.TryLock() {
			// The woken standby beat us to the lock; no impatience this
			// round. Let it finish and retry.
			<-done
			continue
		}
		// Standby woke, failed attempt 2 (impatient now), parked again.
		ok := waitUntil(deadline, func() bool {
			select {
			case <-done: // standby slipped through after all
				return true
			default:
			}
			return m.Stats().Parks > parked1
		})
		m.Unlock() // must direct-handoff to the parked impatient standby
		if !ok {
			break
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("standby stranded after impatient handoff")
		}
		if s := m.Stats(); s.Promotions > base.Promotions {
			return // direct handoff observed
		}
		// The standby acquired without the handoff (lost TryLock race
		// resolved late); retry.
	}
	t.Fatalf("impatient standby never received direct handoff: %+v", m.Stats())
}

// TestWorksWithSyncCond demonstrates drop-in compatibility: the locks are
// sync.Lockers, so they compose with the standard library's sync.Cond.
func TestWorksWithSyncCond(t *testing.T) {
	m := NewMCSCR(WithSeed(9))
	c := sync.NewCond(m)
	queue := 0
	var got atomic.Int64
	const items = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // consumer
		defer wg.Done()
		for i := 0; i < items; i++ {
			m.Lock()
			for queue == 0 {
				c.Wait()
			}
			queue--
			got.Add(1)
			m.Unlock()
		}
	}()
	go func() { // producer
		defer wg.Done()
		for i := 0; i < items; i++ {
			m.Lock()
			queue++
			m.Unlock()
			c.Signal()
		}
	}()
	runWithTimeout(t, 60*time.Second, wg.Wait)
	if got.Load() != items {
		t.Fatalf("consumed %d items, want %d", got.Load(), items)
	}
}

func TestStatsAccounting(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			type statser interface{ Stats() interface{} }
			const ops = 500
			runWithTimeout(t, 60*time.Second, func() {
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < ops; i++ {
							m.Lock()
							m.Unlock()
						}
					}()
				}
				wg.Wait()
			})
			var acquires uint64
			switch l := m.(type) {
			case *TAS:
				acquires = l.Stats().Acquires
			case *MCS:
				acquires = l.Stats().Acquires
			case *MCSCR:
				acquires = l.Stats().Acquires
			case *LIFOCR:
				acquires = l.Stats().Acquires
			case *LOITER:
				acquires = l.Stats().Acquires
			case *crLock:
				acquires = l.Stats().Acquires
			default:
				t.Fatalf("no Stats accessor for %T", m)
			}
			if acquires != 4*ops {
				t.Fatalf("acquires=%d want %d", acquires, 4*ops)
			}
		})
	}
}

// TestFairnessPeriodZeroStillLive: disabling the Bernoulli trial must not
// cost liveness — reprovisioning alone has to return passive threads to
// the ACS whenever the chain drains.
func TestFairnessPeriodZeroStillLive(t *testing.T) {
	m := NewMCSCR(WithFairnessPeriod(0), WithSeed(11))
	runWithTimeout(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					m.Lock()
					m.Unlock()
					// A non-trivial NCS lets the chain drain occasionally
					// so reprovisioning is the only path home for culled
					// threads.
					for j := 0; j < 50; j++ {
						_ = j
					}
				}
			}()
		}
		wg.Wait()
	})
	if ps := m.PassiveSize(); ps != 0 {
		t.Fatalf("passive set not drained with fairness disabled: %d", ps)
	}
}

func TestOptionsClamp(t *testing.T) {
	c := buildConfig([]Option{WithPatience(0), WithArrivalSpins(0)})
	if c.patience != 1 || c.arrivalSpins != 1 {
		t.Fatalf("patience/arrivalSpins not clamped: %d %d", c.patience, c.arrivalSpins)
	}
}

// TestManyLocksIndependent ensures per-lock state (pools aside) does not
// leak across instances.
func TestManyLocksIndependent(t *testing.T) {
	locks := make([]*MCSCR, 8)
	for i := range locks {
		locks[i] = NewMCSCR(WithSeed(uint64(i)))
	}
	runWithTimeout(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for i := range locks {
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(m *MCSCR) {
					defer wg.Done()
					for k := 0; k < 500; k++ {
						m.Lock()
						m.Unlock()
					}
				}(locks[i])
			}
		}
		wg.Wait()
	})
	for i, m := range locks {
		if got := m.Stats().Acquires; got != 1500 {
			t.Errorf("lock %d: acquires=%d want 1500", i, got)
		}
	}
}

func ExampleMCSCR() {
	m := NewMCSCR() // drop-in sync.Locker with concurrency restriction
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Lock()
				shared++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println(shared)
	// Output: 400
}
