// Quickstart: build any lock in the family from a spec string, use it as
// a drop-in sync.Locker, and acquire it under a deadline.
//
// The Malthusian lock is API-compatible with sync.Mutex: construct one,
// Lock/Unlock. Under contention it transparently culls surplus threads
// into a passive set (improving cache residency for the active ones) and
// periodically promotes the eldest passive thread for long-term fairness.
// Every lock also satisfies lock.ContextMutex, so request-scoped code can
// bound its wait with a context — a deadline context for a duration.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart 'lifocr?fairness=100&seed=7'
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/lock"
)

func main() {
	// A lock spec names the implementation and its tunables; the registry
	// (lock.New) is the single source of truth for both. The default here
	// is the paper's Malthusian MCS with spin-then-park waiting and the
	// 1/1000 fairness period.
	spec := "mcscr-stp?fairness=1000&seed=1"
	if len(os.Args) > 1 {
		spec = os.Args[1]
	}
	m, err := lock.New(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // the error lists the known locks
		os.Exit(2)
	}

	var (
		counter int
		wg      sync.WaitGroup
	)
	const goroutines, iters = 8, 10_000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()

	fmt.Printf("spec             = %s\n", spec)
	fmt.Printf("counter          = %d (want %d)\n", counter, goroutines*iters)
	if s, ok := m.(lock.Instrumented); ok {
		snap := s.Stats()
		fmt.Printf("acquisitions     = %d\n", snap.Acquires)
		fmt.Printf("culls            = %d (threads moved into the passive set)\n", snap.Culls)
		fmt.Printf("reprovisions     = %d (passive threads recalled to keep the lock saturated)\n", snap.Reprovisions)
		fmt.Printf("promotions       = %d (Bernoulli long-term-fairness grafts)\n", snap.Promotions)
		fmt.Printf("parks / unparks  = %d / %d\n", snap.Parks, snap.Unparks)
	}

	// Deadline-bounded acquisition: with the lock held elsewhere, a
	// request whose budget runs out abandons its place in the queue
	// instead of waiting forever.
	cm := m.(lock.ContextMutex)
	lockFor := func(d time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return cm.LockContext(ctx)
	}
	m.Lock()
	start := time.Now()
	if err := lockFor(25 * time.Millisecond); err == nil {
		fmt.Println("LockContext unexpectedly succeeded on a held lock")
		m.Unlock()
	} else {
		fmt.Printf("LockContext gave up after %v with %v (lock was held), as a deadline-bound request should\n",
			time.Since(start).Round(time.Millisecond), err)
	}
	//lockcheck:ignore cm is m through a type assertion, an alias the lockset cannot prove
	m.Unlock()
	if lockFor(25*time.Millisecond) == nil {
		fmt.Println("...and acquired immediately once the lock was free")
		//lockcheck:ignore cm is m through a type assertion, an alias the lockset cannot prove
		m.Unlock()
	}
}
