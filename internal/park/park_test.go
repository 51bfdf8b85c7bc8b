package park

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestUnparkBeforePark(t *testing.T) {
	p := NewParker()
	p.Unpark()
	done := make(chan struct{})
	go func() {
		p.Park() // must consume the pending permit without blocking
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Park blocked despite pending permit")
	}
}

func TestParkThenUnpark(t *testing.T) {
	p := NewParker()
	done := make(chan struct{})
	go func() {
		p.Park()
		close(done)
	}()
	// Give the goroutine a chance to actually park.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Park returned without a permit")
	default:
	}
	p.Unpark()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Unpark did not wake the parked goroutine")
	}
}

func TestRedundantUnparksCollapse(t *testing.T) {
	p := NewParker()
	for i := 0; i < 10; i++ {
		p.Unpark()
	}
	p.Park() // consumes the single pending permit
	if got := tryConsume(p); got {
		t.Fatal("redundant unparks deposited more than one permit")
	}
}

// The timed park is ParkContext under a deadline context.

func parkFor(p *Parker, d time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return p.ParkContext(ctx)
}

func TestParkTimeoutExpires(t *testing.T) {
	p := NewParker()
	start := time.Now()
	if parkFor(p, 20*time.Millisecond) {
		t.Fatal("timed park reported a permit that was never granted")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("timed park returned too early")
	}
}

func TestParkTimeoutZeroAndNegative(t *testing.T) {
	p := NewParker()
	if parkFor(p, 0) {
		t.Fatal("an expired deadline must not consume a permit that does not exist")
	}
	if parkFor(p, -time.Second) {
		t.Fatal("a deadline in the past must behave like an expired one")
	}
	p.Unpark()
	if !parkFor(p, 0) {
		t.Fatal("an expired deadline must still consume a pending permit")
	}
}

func TestParkTimeoutConsumesLatePermit(t *testing.T) {
	p := NewParker()
	go func() {
		time.Sleep(10 * time.Millisecond)
		p.Unpark()
	}()
	if !parkFor(p, 2*time.Second) {
		t.Fatal("timed park missed a permit granted before the deadline")
	}
}

// The non-blocking consume is ParkContext under a context that is already
// done: it takes a pending permit and reports whether there was one.

func tryConsume(p *Parker) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return p.ParkContext(ctx)
}

func TestTryConsume(t *testing.T) {
	p := NewParker()
	if tryConsume(p) {
		t.Fatal("a non-blocking consume invented a permit")
	}
	p.Unpark()
	if !tryConsume(p) {
		t.Fatal("a non-blocking consume missed a pending permit")
	}
	if tryConsume(p) {
		t.Fatal("a non-blocking consume double-consumed")
	}
}

// TestHandoffPingPong drives many park/unpark round trips between two
// goroutines, the pattern a direct-handoff lock generates under saturation.
func TestHandoffPingPong(t *testing.T) {
	const rounds = 10_000
	a, b := NewParker(), NewParker()
	var turns atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.Park()
			turns.Add(1)
			b.Unpark()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.Unpark()
			b.Park()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("ping-pong deadlocked after %d turns", turns.Load())
	}
	if turns.Load() != rounds {
		t.Fatalf("lost wakeups: %d turns, want %d", turns.Load(), rounds)
	}
}

// TestManyUnparkers checks that concurrent unparkers never lose the permit
// entirely (no stranded waiter), the failure mode the gate channel guards
// against.
func TestManyUnparkers(t *testing.T) {
	p := NewParker()
	const waits = 200
	for i := 0; i < waits; i++ {
		var wg sync.WaitGroup
		for u := 0; u < 4; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Unpark()
			}()
		}
		p.Park()
		wg.Wait()
		// Drain any extra permit so the next round starts neutral.
		tryConsume(p)
		for {
			select {
			case <-p.gate:
				continue
			default:
			}
			break
		}
		p.state.Store(0)
	}
}

func BenchmarkUncontendedParkUnpark(b *testing.B) {
	p := NewParker()
	for i := 0; i < b.N; i++ {
		p.Unpark()
		p.Park()
	}
}

func TestParkContextPermit(t *testing.T) {
	p := NewParker()
	p.Unpark()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !p.ParkContext(ctx) {
		t.Fatal("ParkContext missed the pending permit")
	}
}

func TestParkContextCancel(t *testing.T) {
	p := NewParker()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- p.ParkContext(ctx) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("ParkContext returned without permit or cancellation")
	default:
	}
	cancel()
	select {
	case got := <-done:
		if got {
			t.Fatal("cancelled ParkContext reported a consumed permit")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ParkContext ignored cancellation")
	}
}

// TestParkContextPermitBeatsCancel: a permit racing with cancellation must
// not be lost — either the permit is consumed (true) or it stays pending
// for the next Park.
func TestParkContextPermitBeatsCancel(t *testing.T) {
	p := NewParker()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Unpark()
	if !p.ParkContext(ctx) {
		// Permit must still be pending.
		if !p.state.CompareAndSwap(1, 0) {
			t.Fatal("permit lost across a cancelled ParkContext")
		}
	}
}

// TestParkContextNil: a nil context (and a never-cancellable one)
// degenerates to plain Park.
func TestParkContextNil(t *testing.T) {
	p := NewParker()
	done := make(chan struct{})
	go func() {
		if !p.ParkContext(nil) {
			t.Error("nil-ctx ParkContext returned false")
		}
		if !p.ParkContext(context.Background()) {
			t.Error("Background-ctx ParkContext returned false")
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Unpark()
	time.Sleep(10 * time.Millisecond)
	p.Unpark()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ParkContext without cancellation did not behave like Park")
	}
}

// The three costs that make lock's spin-then-park waiters park at once:
// what a waiter pays to park and be woken, and what one polite yield of a
// spin phase costs with and without other runnable goroutines.

// BenchmarkParkRoundTrip is a ping-pong between two goroutines: one op is
// a full round trip, two parks and two unparks.
func BenchmarkParkRoundTrip(b *testing.B) {
	ping, pong := NewParker(), NewParker()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			ping.Park()
			pong.Unpark()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Unpark()
		pong.Park()
	}
	<-done
}

// BenchmarkGoschedAlone is a yield with nothing else to run.
func BenchmarkGoschedAlone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runtime.Gosched()
	}
}

// BenchmarkGoschedWith8Runnable is the same yield as a spinning waiter
// makes it: behind eight runnable peers that are yielding too.
func BenchmarkGoschedWith8Runnable(b *testing.B) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				runtime.Gosched()
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.Gosched()
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
