package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/lock"
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
	receipt := time.Now()
	deadline := receipt.Add(30 * time.Millisecond)
	c.reset(parent, receipt, 30*time.Millisecond)
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
	c.reset(parent, time.Now(), time.Hour)
	done = c.Done()
	c.deadline = time.Now() // white box: the frame expires under the timer
	if c.Err() == nil || !isClosed(done) {
		t.Fatal("Err is non-nil with Done still open")
	}
	c.reset(parent, time.Now(), time.Hour)
	if timerArmed(&c) {
		t.Fatal("reset left the last frame's timer armed")
	}

	// A frame that arrives expired (wire.ExpiredBudget: the deadline is the
	// receipt time) fails at once and is handed a closed channel; the
	// timer is not touched.
	c.reset(parent, time.Now(), 0)
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
	c.reset(parent, time.Now(), time.Hour)
	if isClosed(c.Done()) {
		t.Fatal("the frame after an expired one was born closed")
	}
	c.reset(nil, time.Time{}, 0)
}

// TestFrameCtxReceiptClock: until Done is asked, Err measures the
// deadline against the frame's receipt time, not the clock; once Done
// is asked, Err follows the clock (TestFrameCtxContract waits a deadline
// out). A frame with no budget left (wire.ExpiredBudget) fails at once.
func TestFrameCtxReceiptClock(t *testing.T) {
	parent := context.Background()
	var c frameCtx
	defer c.reset(nil, time.Time{}, 0)

	// Received an hour ago with a minute to spend: by the clock the
	// deadline is long gone, by the receipt reading it is not.
	c.reset(parent, time.Now().Add(-time.Hour), time.Minute)
	if err := c.Err(); err != nil {
		t.Fatalf("Err before Done, against the receipt time = %v, want nil", err)
	}
	if !isClosed(c.Done()) {
		t.Fatal("Done of a frame past its deadline by the clock is open")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done, against the clock = %v, want DeadlineExceeded", err)
	}

	// No budget: fails against the receipt reading, before anyone asks
	// for Done, however recent the receipt is.
	c.reset(parent, time.Now().Add(time.Hour), 0)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err of a frame received with no budget = %v", err)
	}
	if c.asked.Load() {
		t.Fatal("Err asked for Done")
	}
}

// spyLock is mcs-stp with the deadline of every LockContext recorded:
// below serveConn, the stripe lock is where a frame's context shows.
type spyLock struct{ lock.ContextMutex }

var (
	spyMu        sync.Mutex
	spyDeadlines []time.Time
)

func (l spyLock) LockContext(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok {
		spyMu.Lock()
		spyDeadlines = append(spyDeadlines, d)
		spyMu.Unlock()
	}
	return l.ContextMutex.LockContext(ctx)
}

func init() {
	lock.Register(lock.Registration{
		Name:    "deadlinespy",
		Summary: "test-only: mcs-stp recording each LockContext deadline",
		Build: func(opts ...lock.Option) lock.Mutex {
			return spyLock{lock.MustNew("mcs-stp", opts...).(lock.ContextMutex)}
		},
	})
}

// sleepInjector lengthens every critical section by d.
type sleepInjector time.Duration

func (d sleepInjector) InCS(int) { time.Sleep(time.Duration(d)) }

// TestFramesOfOneReadShareReceipt: the frames one socket read delivers
// share one receipt time, however long the frames ahead of them take to
// serve, and the next read takes a new one. Each Put holds its stripe
// for 2 ms, so frames that read the clock one by one would have
// deadlines at least 2 ms apart. The expired frame's deadline is the
// receipt time itself, and it still fails at once.
func TestFramesOfOneReadShareReceipt(t *testing.T) {
	const budget = 10 * time.Second
	s, err := New(Config{Stripes: 1, LockSpec: "deadlinespy"})
	if err != nil {
		t.Fatal(err)
	}
	s.m.SetInjector(sleepInjector(2 * time.Millisecond))
	client, srv := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(srv)
	}()
	defer func() {
		client.Close()
		srv.Close()
		<-served
	}()

	// One client write is one read on the server's side of the pipe.
	batch := func(expired bool) []wire.Status {
		var req []byte
		for k := uint64(0); k < 3; k++ {
			req = wire.AppendPut(req, 0, uint32(budget/time.Microsecond), k, k)
		}
		if expired {
			req = wire.AppendPut(req, 0, wire.ExpiredBudget, 9, 9)
		}
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		var statuses []wire.Status
		for range len(req) / len(wire.AppendPut(nil, 0, 0, 0, 0)) {
			var hdr [wire.RespHeaderSize]byte
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				t.Fatal(err)
			}
			h, err := wire.ParseRespHeader(hdr[:])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.CopyN(io.Discard, client, int64(h.Len)); err != nil {
				t.Fatal(err)
			}
			statuses = append(statuses, h.Status)
		}
		return statuses
	}
	spyMu.Lock()
	spyDeadlines = spyDeadlines[:0]
	spyMu.Unlock()
	first := batch(true)
	second := batch(false)
	want := []wire.Status{wire.StatusOK, wire.StatusOK, wire.StatusOK, wire.StatusDeadline, wire.StatusOK, wire.StatusOK, wire.StatusOK}
	if got := append(first, second...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("statuses %v, want %v", got, want)
	}

	spyMu.Lock()
	d := append([]time.Time(nil), spyDeadlines...)
	spyMu.Unlock()
	if len(d) != 7 {
		t.Fatalf("%d deadlines recorded, want 7", len(d))
	}
	for i := 1; i < 3; i++ {
		if !d[i].Equal(d[0]) {
			t.Errorf("first read: frame %d's deadline is %v after frame 0's, want the same receipt", i, d[i].Sub(d[0]))
		}
		if !d[4+i].Equal(d[4]) {
			t.Errorf("second read: frame %d's deadline is %v after frame 0's, want the same receipt", i, d[4+i].Sub(d[4]))
		}
	}
	if got := d[0].Sub(d[3]); got != budget {
		t.Errorf("the expired frame's deadline is %v before its batch's budgeted ones, want %v: not its receipt time", got, budget)
	}
	if !d[4].After(d[0]) {
		t.Errorf("the second read's frames kept the first read's receipt")
	}
}

// TestFrameCtxRepointedFrames re-points one context 10⁴ times at frames
// whose budgets straddle expiry — most never ask for Done, some ask and
// return before the deadline, some return around the moment the timer
// fires, some wait it out — each followed by a patient frame, whose
// channel no earlier frame's timer may close.
func TestFrameCtxRepointedFrames(t *testing.T) {
	parent := context.Background()
	var c frameCtx
	defer c.reset(nil, time.Time{}, 0)
	var untouched, left, fired int
	for i := 0; i < 10000; i++ {
		budget := time.Duration(i%7) * 5 * time.Microsecond // 0 arrives expired
		receipt := time.Now()
		deadline := receipt.Add(budget)
		c.reset(parent, receipt, budget)
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
		c.reset(parent, time.Now(), time.Hour)
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
	defer c.reset(nil, time.Time{}, 0)
	for i := 0; i < 20; i++ {
		c.reset(parent, time.Now(), 100*time.Microsecond)
		stale := c.Done()
		c.mu.Lock()
		time.Sleep(3 * time.Millisecond) // the timer fires; fire blocks on mu
		c.mu.Unlock()
		c.reset(parent, time.Now(), time.Hour) // usually gets mu first
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
// allocates nothing, from the socket read to the socket write, on either
// read path — also when the frame's context carries the connection's
// client id into a recording stripe. Only the locked path records the
// admissions: a lock-free hit leaves no history.
func TestDeadlinedGetFrameDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, hcap := range []int{0, 4096} {
		t.Run(fmt.Sprintf("history-cap=%d", hcap), func(t *testing.T) {
			for _, rp := range []string{"locked", "optimistic"} {
				t.Run(rp, func(t *testing.T) { deadlinedGetFrame(t, rp, hcap) })
			}
		})
	}
}

func deadlinedGetFrame(t *testing.T, readPath string, hcap int) {
	s, err := New(Config{Stripes: 4, HistoryCap: hcap, ReadPath: readPath})
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
	if recorded := hcap > 0 && readPath == "locked"; recorded != (admissions > 0) {
		t.Errorf("history cap %d on the %s read path recorded %d admissions", hcap, readPath, admissions)
	}
	client.Close()
	srv.Close()
	<-served
}
