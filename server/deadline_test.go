package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/shard"
	"repro/wire"
)

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// timerArmed reports whether c's timer was still armed, stopping it.
func timerArmed(c *frameCtx) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timer != nil && c.timer.Stop()
}

// TestFrameCtxContract holds the connection's deadline context to the
// context.Context contract, one frame at a time.
func TestFrameCtxContract(t *testing.T) {
	parent := shard.WithClass(context.Background(), 2)
	var c frameCtx

	// A live frame nobody waits in: no error, the frame's deadline, the
	// parent's values — and no channel made, no timer armed.
	deadline := time.Now().Add(30 * time.Millisecond)
	c.reset(parent, deadline)
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	if d, ok := c.Deadline(); !ok || !d.Equal(deadline) {
		t.Fatalf("Deadline = %v, %v; want %v", d, ok, deadline)
	}
	if got := shard.Class(&c); got != 2 {
		t.Fatalf("Class through Value = %d, want 2", got)
	}
	if c.asked.Load() || timerArmed(&c) {
		t.Fatal("a frame whose Done was never asked left a channel or an armed timer")
	}

	// Asked, Done closes at the deadline (within scheduler tolerance), and
	// from then on Err is DeadlineExceeded.
	done := c.Done()
	if isClosed(done) || c.Err() != nil {
		t.Fatal("Done closed or Err set before the deadline")
	}
	if c.Done() != done {
		t.Fatal("a second Done in the same frame returned another channel")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Done never closed")
	}
	if late := time.Since(deadline); late < 0 || late > 5*time.Second {
		t.Fatalf("Done closed %v after the deadline", late)
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v", err)
	}

	// Done is closed whenever Err is non-nil, even when Err is what
	// notices the deadline first: the timer is armed far too late here.
	c.reset(parent, time.Now().Add(time.Hour))
	done = c.Done()
	c.deadline = time.Now() // white box: the frame expires under the timer
	if c.Err() == nil || !isClosed(done) {
		t.Fatal("Err is non-nil with Done still open")
	}
	c.reset(parent, time.Now().Add(time.Hour))
	if timerArmed(&c) {
		t.Fatal("reset left the last frame's timer armed")
	}

	// A frame that arrives expired (wire.ExpiredBudget: the deadline is the
	// receipt time) fails at once and is handed a closed channel; the
	// timer is not touched.
	c.reset(parent, time.Now())
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err of an expired frame = %v", err)
	}
	if !isClosed(c.Done()) {
		t.Fatal("Done of an expired frame is open")
	}
	if timerArmed(&c) {
		t.Fatal("an expired frame armed the timer")
	}
	// The shared closed channel must not be closed again, nor survive.
	c.reset(parent, time.Now().Add(time.Hour))
	if isClosed(c.Done()) {
		t.Fatal("the frame after an expired one was born closed")
	}
	c.reset(nil, time.Time{})
}

// TestFrameCtxRepointedFrames re-points one context 10⁴ times at frames
// whose budgets straddle expiry — most never ask for Done, some ask and
// return before the deadline, some return around the moment the timer
// fires, some wait it out — each followed by a patient frame, whose
// channel no earlier frame's timer may close.
func TestFrameCtxRepointedFrames(t *testing.T) {
	parent := context.Background()
	var c frameCtx
	defer c.reset(nil, time.Time{})
	var untouched, left, fired int
	for i := 0; i < 10000; i++ {
		budget := time.Duration(i%7) * 5 * time.Microsecond // 0 arrives expired
		deadline := time.Now().Add(budget)
		c.reset(parent, deadline)
		switch i % 8 {
		default: // nobody waits
			untouched++
		case 1, 5: // asks, and is granted the lock at once: Stop wins
			c.Done()
			left++
		case 3: // asks, and returns somewhere in the millisecond after the
			// deadline, which is when the timer really fires
			done := c.Done()
			for linger := time.Duration(i/8%50) * 20 * time.Microsecond; time.Since(deadline) < linger; {
			}
			if isClosed(done) {
				fired++
			} else {
				left++
			}
		case 7: // waits the deadline out
			<-c.Done()
			if c.Err() == nil {
				t.Fatalf("frame %d: Done closed with Err nil", i)
			}
			fired++
		}
		// The next frame has an hour. Whatever the last frame's timer is
		// doing — stopped, firing right now, or already run — this
		// channel stays open.
		c.reset(parent, time.Now().Add(time.Hour))
		done := c.Done()
		for spin := 0; spin < 50; spin++ {
			if isClosed(done) {
				t.Fatalf("frame %d (budget %v, mode %d): its timer closed the next frame's channel", i, budget, i%8)
			}
		}
		if err := c.Err(); err != nil {
			t.Fatalf("frame after %d: Err = %v", i, err)
		}
	}
	t.Logf("%d never asked, %d asked and left before the timer, %d saw it fire", untouched, left, fired)
}

// TestFrameCtxLateTimer stages the race the sweep above only brushes: the
// timer of frame n has fired, its callback is held up (here: behind the
// mutex), and the connection moves on to frame n+1 and hands out its
// channel before the callback gets to run. The callback must leave that
// channel alone.
func TestFrameCtxLateTimer(t *testing.T) {
	parent := context.Background()
	var c frameCtx
	defer c.reset(nil, time.Time{})
	for i := 0; i < 20; i++ {
		c.reset(parent, time.Now().Add(100*time.Microsecond))
		stale := c.Done()
		c.mu.Lock()
		time.Sleep(3 * time.Millisecond) // the timer fires; fire blocks on mu
		c.mu.Unlock()
		c.reset(parent, time.Now().Add(time.Hour)) // usually gets mu first
		done := c.Done()
		time.Sleep(time.Millisecond) // fire runs now, if it had not
		if isClosed(done) {
			t.Fatalf("round %d: frame n's timer closed frame n+1's channel", i)
		}
		if stale == done {
			t.Fatalf("round %d: frame n+1 was handed frame n's channel", i)
		}
	}
}

// TestDeadlinedGetFrameDoesNotAllocate pins server.allocs_per_get_deadline
// in tier-1: in steady state a deadlined GET frame served without waiting
// allocates nothing, from the socket read to the socket write — also when
// the frame's context carries the connection's client id into a
// recording stripe.
func TestDeadlinedGetFrameDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, hcap := range []int{0, 4096} {
		t.Run(fmt.Sprintf("history-cap=%d", hcap), func(t *testing.T) {
			s, err := New(Config{Stripes: 4, HistoryCap: hcap})
			if err != nil {
				t.Fatal(err)
			}
			s.m.Put(42, 4242)
			client, srv := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.serveConn(srv)
			}()

			req := wire.AppendGet(nil, 1, 100_000, 42) // class 1, 100 ms budget
			resp := make([]byte, len(wire.AppendGetResp(nil, true, 4242)))
			roundTrip := func() {
				if _, err := client.Write(req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(client, resp); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // pools, buffers and the runtime warm up
				roundTrip()
			}
			if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
				t.Errorf("a deadlined GET frame allocated %.2f times, want 0", n)
			}
			h, err := wire.ParseRespHeader(resp)
			if err != nil || h.Status != wire.StatusOK {
				t.Errorf("response header %+v, %v", h, err)
			}
			snap := s.m.Snapshot()
			if snap.ClassDeadlineAttempts[1] < 1100 || snap.DeadlineMisses != 0 {
				t.Errorf("class 1 attempts %d, misses %d: the frames were not served as budgeted", snap.ClassDeadlineAttempts[1], snap.DeadlineMisses)
			}
			admissions := 0
			for _, st := range snap.Stripes {
				admissions += st.Fairness.Admissions
			}
			if (hcap == 0) != (admissions == 0) {
				t.Errorf("history cap %d recorded %d admissions", hcap, admissions)
			}
			client.Close()
			srv.Close()
			<-served
		})
	}
}
