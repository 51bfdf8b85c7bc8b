package loadgen

import (
	"sync"
	"testing"
	"time"

	"repro/fault"
)

// seen is one request as the fake target received it.
type seen struct {
	worker int
	req    Request
	budget time.Duration // time left until req.Deadline when Do was called
}

// fake is a scripted system under load: every dialed target hands its
// requests to script (serialized, with the request's global ordinal) and
// returns what it says.
type fake struct {
	script func(n int, worker int, r Request) Outcome

	mu            sync.Mutex
	reqs          []seen
	dials, closes []int // worker ids, in order
}

func (f *fake) dial(worker int) (Target, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dials = append(f.dials, worker)
	return fakeTarget{f, worker}, nil
}

type fakeTarget struct {
	f      *fake
	worker int
}

func (t fakeTarget) Do(r Request) Outcome {
	s := seen{worker: t.worker, req: r}
	if !r.Deadline.IsZero() {
		s.budget = time.Until(r.Deadline)
	}
	t.f.mu.Lock()
	n := len(t.f.reqs)
	t.f.reqs = append(t.f.reqs, s)
	t.f.mu.Unlock()
	if t.f.script == nil {
		return OK
	}
	return t.f.script(n, t.worker, r)
}

func (t fakeTarget) Close() {
	t.f.mu.Lock()
	t.f.closes = append(t.f.closes, t.worker)
	t.f.mu.Unlock()
}

func baseTraffic() Traffic {
	return Traffic{
		Workers: 2, Duration: 60 * time.Millisecond, Keys: 1000, Dist: "uniform",
		ReadFrac: 0.5, ScanFrac: 0.2, ScanSpan: 8, Seed: 7,
	}
}

// TestRunAccounting runs the loop over scripted outcomes and checks the
// package comment's rules as exact identities.
func TestRunAccounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		traffic func(*Traffic)
		script  func(n, worker int, r Request) Outcome
		check   func(t *testing.T, f *fake, res Result)
	}{
		{
			// Every outcome in rotation: what a request became decides
			// which single counter it lands in, and only completed or
			// missed deadlined requests are attempts.
			name:    "conservation",
			traffic: func(tr *Traffic) { tr.Deadline, tr.DeadlineFrac, tr.Classes = time.Second, 0.5, 3 },
			script: func(n, _ int, r Request) Outcome {
				switch {
				case n%5 == 1 && !r.Deadline.IsZero():
					return Missed
				case n%5 == 2 && r.Op == Scan:
					return Rejected
				case n%5 == 3:
					return Broken
				}
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				var ok, missed, rejected, broken, attempts, scans int
				for n, s := range f.reqs {
					deadlined := !s.req.Deadline.IsZero()
					switch f.script(n, s.worker, s.req) {
					case OK:
						ok++
						if deadlined {
							attempts++
						}
						if s.req.Op == Scan {
							scans++
						}
					case Missed:
						missed++
						attempts++
					case Rejected:
						rejected++
					case Broken:
						broken++
					}
					if deadlined != (s.req.Class != 0) || s.req.Class > 3 {
						t.Fatalf("request %d: deadline %v with class %d; want classes 1..3 on deadlined requests only", n, s.req.Deadline, s.req.Class)
					}
					if s.req.Op == Scan && s.req.Arg-s.req.Key != 7 {
						t.Fatalf("scan [%d, %d] does not cover 8 keys", s.req.Key, s.req.Arg)
					}
				}
				if missed == 0 || rejected == 0 || broken == 0 {
					t.Fatalf("script never produced every outcome: %d missed %d rejected %d broken", missed, rejected, broken)
				}
				want := [...]int{len(f.reqs), ok, scans, rejected, attempts, missed, broken}
				got := [...]int{res.Issued, res.Ops, res.Scans, res.Rejected, res.Attempts, res.Misses, res.Broken}
				if got != want {
					t.Fatalf("issued, ops, scans, rejected, attempts, misses, broken\n got %v\nwant %v", got, want)
				}
				if res.Ops+res.Misses+res.Rejected+res.Broken != res.Issued {
					t.Fatalf("ops %d + misses %d + rejected %d + broken %d != issued %d", res.Ops, res.Misses, res.Rejected, res.Broken, res.Issued)
				}
				if len(res.Latencies) != res.Ops {
					t.Fatalf("%d latencies for %d ops: a reported miss stays out of the pool", len(res.Latencies), res.Ops)
				}
				// Each Broken outcome cost exactly one re-dial (bar a
				// worker's last, if the cell had stopped), and every
				// target dialed was closed.
				if n := len(f.dials); n > 2+broken || n < broken || len(f.closes) != n {
					t.Fatalf("%d dials and %d closes for 2 workers and %d broken requests", len(f.dials), len(f.closes), broken)
				}
				if res.Elapsed < 60*time.Millisecond {
					t.Fatalf("measured elapsed %v is shorter than the cell", res.Elapsed)
				}
			},
		},
		{
			// Closed loop: a request is issued when the previous one
			// returns, so its budget starts then — the target sees each
			// deadline whole, drawn from [0.5d, 1.5d].
			name:    "closed loop draws the deadline from issue time",
			traffic: func(tr *Traffic) { tr.Workers, tr.Deadline, tr.DeadlineFrac = 1, time.Second, 1 },
			script: func(int, int, Request) Outcome {
				time.Sleep(time.Millisecond)
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				if n := len(f.reqs); n < 10 || n > 60 {
					t.Fatalf("%d requests in 60ms at 1ms each: not one in flight at a time", n)
				}
				lo, hi := time.Hour, time.Duration(0)
				for _, s := range f.reqs {
					lo, hi = min(lo, s.budget), max(hi, s.budget)
				}
				if lo < 400*time.Millisecond || hi > 1500*time.Millisecond || hi-lo < 200*time.Millisecond {
					t.Fatalf("budgets span [%v, %v]; want a spread inside [0.5s, 1.5s]", lo, hi)
				}
			},
		},
		{
			// Open loop: budget and latency start at the scheduled
			// arrival. A target that takes 20ms per request against a
			// 1ms schedule is handed deadlines that already expired: each
			// reply is late, so a miss, and the queueing shows in the
			// latencies.
			name: "open loop charges a late generator",
			traffic: func(tr *Traffic) {
				tr.Workers, tr.Rate, tr.Deadline, tr.DeadlineFrac = 1, 1000, 2*time.Millisecond, 1
			},
			script: func(int, int, Request) Outcome {
				time.Sleep(20 * time.Millisecond)
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				if len(f.reqs) < 3 {
					t.Fatalf("only %d requests", len(f.reqs))
				}
				for n, s := range f.reqs[1:] {
					if s.budget > 0 {
						t.Fatalf("request %d, ~%dms behind schedule, still had %v of budget", n+1, 20*(n+1), s.budget)
					}
				}
				if last := time.Duration(res.Latencies[len(res.Latencies)-1]); last < 35*time.Millisecond {
					t.Fatalf("last latency %v does not include the time spent queued behind the schedule", last)
				}
				if res.Ops != 0 || res.Attempts != res.Issued || res.Misses != res.Issued {
					t.Fatalf("every reply came after its deadline, yet ops %d, attempts %d, misses %d of %d issued",
						res.Ops, res.Attempts, res.Misses, res.Issued)
				}
			},
		},
		{
			// Closed loop: a target that serves every request 5ms after
			// a ~1ms deadline reports no miss itself, but every reply
			// reaches the client too late — each is a miss, not an op,
			// and its latency stays in the pool.
			name: "a late reply is a miss",
			traffic: func(tr *Traffic) {
				tr.Workers, tr.Deadline, tr.DeadlineFrac = 1, time.Millisecond, 1
			},
			script: func(int, int, Request) Outcome {
				time.Sleep(5 * time.Millisecond)
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				if res.Issued < 3 || res.Ops != 0 || res.Scans != 0 || res.Attempts != res.Issued || res.Misses != res.Issued {
					t.Fatalf("late replies: issued %d, ops %d, scans %d, attempts %d, misses %d; want every request an attempt and a miss",
						res.Issued, res.Ops, res.Scans, res.Attempts, res.Misses)
				}
				if len(res.Latencies) != res.Issued {
					t.Fatalf("%d latencies for %d late replies: a late reply keeps its latency in the pool", len(res.Latencies), res.Issued)
				}
				for _, ns := range res.Latencies {
					if time.Duration(ns) < 5*time.Millisecond {
						t.Fatalf("latency %v is shorter than the 5ms the target took", time.Duration(ns))
					}
				}
			},
		},
		{
			name:    "churn re-dials at the cadence",
			traffic: func(tr *Traffic) { tr.Workers, tr.Churn = 1, 10*time.Millisecond },
			script: func(int, int, Request) Outcome {
				time.Sleep(500 * time.Microsecond)
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				if n := len(f.dials); n < 3 || n > 7 || len(f.closes) != n {
					t.Fatalf("%d dials, %d closes over 60ms at a 10ms churn", n, len(f.closes))
				}
				if res.Broken != 0 || res.Ops != res.Issued {
					t.Fatalf("churn lost requests: %+v", res)
				}
			},
		},
		{
			// One arrival every 10s: the worker is asleep when the cell
			// stops, and must wake to the stop, not to its schedule.
			name:    "stop mid-sleep issues nothing further",
			traffic: func(tr *Traffic) { tr.Workers, tr.Rate = 1, 0.1 },
			check: func(t *testing.T, f *fake, res Result) {
				if res.Issued != 0 || len(f.reqs) != 0 {
					t.Fatalf("%d requests issued", res.Issued)
				}
				if res.Elapsed > time.Second {
					t.Fatalf("the cell took %v to stop", res.Elapsed)
				}
			},
		},
		{
			name: "a draining target ends its worker",
			script: func(_, worker int, _ Request) Outcome {
				if worker == 0 {
					return Draining
				}
				return OK
			},
			check: func(t *testing.T, f *fake, res Result) {
				drained := 0
				for _, s := range f.reqs {
					if s.worker == 0 {
						drained++
					}
				}
				if drained != 1 || res.Broken != 1 || len(f.dials) != 2 || len(f.closes) != 2 {
					t.Fatalf("worker 0 issued %d requests after draining (broken %d, dials %d, closes %d)", drained, res.Broken, len(f.dials), len(f.closes))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := baseTraffic()
			if tc.traffic != nil {
				tc.traffic(&tr)
			}
			f := &fake{script: tc.script}
			tc.check(t, f, Run(tr, f.dial, nil))
		})
	}
}

// TestRunHarnessFaults: the harness half of a fault set runs in the loop,
// on the timeline. While a hotkey fault is armed every key is the hot
// key; before and after, keys pass through untouched. While a surge is
// armed its surplus workers are extra dialed targets.
func TestRunHarnessFaults(t *testing.T) {
	const hot = 4242 // outside the keyspace, so a rerouted key is unmistakable
	tr := baseTraffic()
	tr.Workers, tr.Duration, tr.ScanFrac = 1, 150*time.Millisecond, 0
	f := &fake{script: func(int, int, Request) Outcome {
		time.Sleep(100 * time.Microsecond)
		return OK
	}}
	chaos := &Chaos{
		Set:   fault.MustNew("hotkey?key=4242+surge?threads=3"),
		After: 40 * time.Millisecond, For: 50 * time.Millisecond, Sample: 2 * time.Millisecond, Target: 0.05,
	}
	armed, disarmed := 0, 0
	chaos.Arm, chaos.Disarm = func() { armed++ }, func() { disarmed++ }
	res := Run(tr, f.dial, chaos)

	// Worker 0's keys, in order: identity, then hot, then identity.
	phase, counts, rerouted := 0, [3]int{}, 0
	for _, s := range f.reqs {
		if s.req.Key == hot {
			rerouted++
		}
		if s.worker != 0 {
			continue
		}
		if isHot := s.req.Key == hot; isHot != (phase == 1) {
			phase++
		}
		if phase > 2 {
			t.Fatalf("worker 0's keys left the hot key more than once")
		}
		counts[phase]++
		if s.req.Key != hot && s.req.Key >= uint64(tr.Keys) {
			t.Fatalf("key %d is neither the hot key nor in the keyspace", s.req.Key)
		}
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("worker 0 issued %v requests before/during/after the storm; want all three phases", counts)
	}
	cr := res.Chaos
	if cr == nil || cr.Reroutes != uint64(rerouted) || cr.Fault != chaos.Set.String() {
		t.Fatalf("chaos record %+v; want %d reroutes", cr, rerouted)
	}
	if armed != 1 || disarmed != 1 {
		t.Fatalf("remote half armed %d times, disarmed %d", armed, disarmed)
	}
	// Surge: three surplus workers, ids after the measured ones, dialed
	// during the storm and closed by the time Run returns; uncounted.
	surge := map[int]bool{}
	for _, id := range f.dials {
		if id >= tr.Workers {
			surge[id] = true
		}
	}
	if len(surge) != 3 || !surge[1] || !surge[2] || !surge[3] || cr.SurgePeak != 3 {
		t.Fatalf("surge dialed workers %v, surge_peak %d; want ids 1..3", f.dials, cr.SurgePeak)
	}
	if len(f.closes) != len(f.dials) {
		t.Fatalf("%d dials but %d closes: a surge target outlived the cell", len(f.dials), len(f.closes))
	}
	if res.Issued != counts[0]+counts[1]+counts[2] {
		t.Fatalf("issued %d, but worker 0 alone sent %d: surge traffic must not be counted", res.Issued, counts[0]+counts[1]+counts[2])
	}

	// A cell that never reaches After arms nothing and leaves every key
	// alone; one that stops mid-storm is disarmed on the way out. Either
	// way the phases account for every deadline attempt.
	tr.Duration, tr.Deadline, tr.DeadlineFrac = 30*time.Millisecond, time.Second, 1
	for _, after := range []time.Duration{5 * time.Second, 5 * time.Millisecond} {
		f = &fake{}
		armed, disarmed = 0, 0
		chaos.After, chaos.For = after, time.Second
		res = Run(tr, f.dial, chaos)
		midStorm := after < tr.Duration
		if armed != disarmed || (armed == 1) != midStorm || chaos.Set.Active() {
			t.Fatalf("after=%v: armed %d times, disarmed %d, still active %v", after, armed, disarmed, chaos.Set.Active())
		}
		cr = res.Chaos
		if (cr.FaultAttempts > 0) != midStorm || cr.PreAttempts+cr.FaultAttempts+cr.PostAttempts != res.Attempts {
			t.Fatalf("after=%v: phases %d+%d+%d do not account for %d attempts", after, cr.PreAttempts, cr.FaultAttempts, cr.PostAttempts, res.Attempts)
		}
		for _, s := range f.reqs {
			if !midStorm && s.req.Key >= uint64(tr.Keys) {
				t.Fatalf("a set that was never armed rewrote a key to %d", s.req.Key)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	ok := baseTraffic()
	chaos := &Chaos{After: 10 * time.Millisecond, For: 20 * time.Millisecond, Sample: time.Millisecond}
	if err := ok.Validate(chaos); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(*Traffic, *Chaos){
		"dist":         func(tr *Traffic, _ *Chaos) { tr.Dist = "pareto" },
		"zipf-s":       func(tr *Traffic, _ *Chaos) { tr.Dist, tr.ZipfS = "zipf", 1 },
		"scan-span":    func(tr *Traffic, _ *Chaos) { tr.ScanSpan = 0 },
		"fault-sample": func(_ *Traffic, c *Chaos) { c.Sample = 0 },
		"no tail":      func(_ *Traffic, c *Chaos) { c.For = 50 * time.Millisecond },
	} {
		tr, c := ok, *chaos
		bad(&tr, &c)
		if err := tr.Validate(&c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
