package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Event identifies one of the CR event counters a lock maintains. Events
// index into a stats stripe; the set mirrors the fields of Snapshot.
type Event uint32

const (
	EvAcquires     Event = iota // successful lock acquisitions
	EvHandoffs                  // direct handoffs to a waiting successor
	EvCulls                     // ACS→PS transfers (culling)
	EvReprovisions              // PS→ACS transfers to preserve work conservation
	EvPromotions                // PS→ownership fairness grafts (Bernoulli)
	EvParks                     // voluntary context switches: waiter parked
	EvUnparks                   // wakeups issued to parked waiters
	EvFastPath                  // uncontended / barging acquisitions
	EvSlowPath                  // acquisitions that queued
	EvCancels                   // acquisitions abandoned (context cancelled / deadline)
	EvAbandons                  // abandoned waiter nodes excised by other paths

	numEvents
)

// stripeBytes is the footprint of one stripe: two cache lines, so adjacent
// stripes never share a line even under the adjacent-line prefetcher.
const stripeBytes = 128

// stripe holds one full set of event counters on its own pair of cache
// lines. Writers hash to a stripe; Read sums across all of them.
//
//lockcheck:line=2
type stripe struct {
	c [numEvents]atomic.Uint64
	_ [stripeBytes - (uintptr(numEvents) * 8)]byte
}

// Stats counts the CR events of a lock, striped across cache-line-padded
// counter sets so concurrent writers on different processors do not fight
// over a single hot line. A nil *Stats is valid and counts nothing: every
// method no-ops, which is the WithStats(false) zero-instrumentation mode.
//
// Writers pick a stripe by a cheap per-goroutine hash (derived from the
// goroutine's stack address), so each circulating goroutine tends to dirty
// only its own stripe. Read sums the stripes into a Snapshot.
type Stats struct {
	stripes []stripe
	mask    uint32
}

// Parallelism is how many goroutines the host can run at once:
// min(GOMAXPROCS, NumCPU). GOMAXPROCS alone overcounts on oversubscribed
// hosts (more Ps than CPUs), where the surplus Ps time-share the CPUs —
// so a stripe per P buys cache footprint with no concurrent writer to
// separate, and an admission cap of GOMAXPROCS admits every runnable
// thread and restricts nothing.
func Parallelism() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// NewStats returns striped stats sized to the host's Parallelism,
// rounded up to a power of two.
func NewStats() *Stats {
	return NewStatsStripes(Parallelism())
}

// NewStatsStripes returns stats with at least n stripes, rounded up to a
// power of two (minimum 1).
func NewStatsStripes(n int) *Stats {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &Stats{stripes: make([]stripe, p), mask: uint32(p - 1)}
}

// Stripes reports the number of counter stripes (a power of two).
func (s *Stats) Stripes() int {
	if s == nil {
		return 0
	}
	return len(s.stripes)
}

// stripeFor picks the caller's stripe (see Slot).
func (s *Stats) stripeFor() *stripe {
	return &s.stripes[Slot(s.mask)]
}

// Slot picks the calling goroutine's slot in a power-of-two array of
// mask+1 slots: the one picker behind every per-goroutine counter array
// (the lock stats stripes, the optimistic pin slots, the shard
// counters). Goroutine stacks are distinct allocations at least 2 KiB
// apart, so the address of a stack variable, coarsened to 1 KiB
// granularity and mixed by a Fibonacci hash, is a cheap per-goroutine
// identifier — no atomics, no TLS, no runtime hooks. Slot choice only
// spreads contention; correctness never depends on stability.
//
//lockcheck:optimistic
func Slot(mask uint32) int {
	if mask == 0 {
		// Single slot (single-CPU host): skip the hash entirely.
		return 0
	}
	var probe byte
	h := uint32(uintptr(unsafe.Pointer(&probe))>>10) * 0x9E3779B1
	return int((h >> 16) & mask)
}

// Inc adds one to event e. Nil-safe; the nil fast path is a single
// predictable branch.
func (s *Stats) Inc(e Event) {
	if s == nil {
		return
	}
	s.stripeFor().c[e].Add(1)
}

// Inc2 adds one to two events with a single stripe lookup.
func (s *Stats) Inc2(a, b Event) {
	if s == nil {
		return
	}
	st := s.stripeFor()
	st.c[a].Add(1)
	st.c[b].Add(1)
}

// Inc3 adds one to three events with a single stripe lookup.
func (s *Stats) Inc3(a, b, c Event) {
	if s == nil {
		return
	}
	st := s.stripeFor()
	st.c[a].Add(1)
	st.c[b].Add(1)
	st.c[c].Add(1)
}

// Snapshot is a plain-value summary of Stats.
type Snapshot struct {
	Acquires     uint64
	Handoffs     uint64
	Culls        uint64
	Reprovisions uint64
	Promotions   uint64
	Parks        uint64
	Unparks      uint64
	FastPath     uint64
	SlowPath     uint64

	// Cancels counts acquisition attempts that returned with a context
	// error: exactly one per failed LockContext or AcquireContext call.
	Cancels uint64
	// Abandons counts abandoned waiter nodes excised by someone other
	// than the cancelled waiter itself: the unlock path's chain walk,
	// passive-list pops, or a LOITER standby resignation. Distinct from
	// Cancels because a cancelled TAS waiter leaves no node behind, and a
	// node abandoned at quiescence may not be excised until later traffic.
	Abandons uint64
}

// events is the one enumeration of the CR events: stripe index ↔ report
// name ↔ Snapshot field. Add, Sub, Read, Each and Set all walk it, so an
// event is declared by its Event constant, its Snapshot field and its
// line here, and nowhere else. Fields are named by offset (every one is
// a uint64, which TestEventEnumerationClosed checks) rather than by an
// accessor closure: a closure makes each walked Snapshot escape, and the
// walks run per stripe on every sampler tick.
var events = [numEvents]struct {
	name string
	off  uintptr
}{
	EvAcquires:     {"acquires", unsafe.Offsetof(Snapshot{}.Acquires)},
	EvHandoffs:     {"handoffs", unsafe.Offsetof(Snapshot{}.Handoffs)},
	EvCulls:        {"culls", unsafe.Offsetof(Snapshot{}.Culls)},
	EvReprovisions: {"reprovisions", unsafe.Offsetof(Snapshot{}.Reprovisions)},
	EvPromotions:   {"promotions", unsafe.Offsetof(Snapshot{}.Promotions)},
	EvParks:        {"parks", unsafe.Offsetof(Snapshot{}.Parks)},
	EvUnparks:      {"unparks", unsafe.Offsetof(Snapshot{}.Unparks)},
	EvFastPath:     {"fast_path", unsafe.Offsetof(Snapshot{}.FastPath)},
	EvSlowPath:     {"slow_path", unsafe.Offsetof(Snapshot{}.SlowPath)},
	EvCancels:      {"cancels", unsafe.Offsetof(Snapshot{}.Cancels)},
	EvAbandons:     {"abandons", unsafe.Offsetof(Snapshot{}.Abandons)},
}

// at returns the field of s that counts event e.
func (s *Snapshot) at(e int) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(s), events[e].off))
}

// Each calls fn once per event with its report name (the key the bench
// records and the exporters use) and value, in Event order.
func (s Snapshot) Each(fn func(name string, v uint64)) {
	for e := range events {
		fn(events[e].name, *s.at(e))
	}
}

// Set assigns v to the event called name and reports whether there is
// one: the inverse of Each, for readers of an exported snapshot.
func (s *Snapshot) Set(name string, v uint64) bool {
	for e := range events {
		if events[e].name == name {
			*s.at(e) = v
			return true
		}
	}
	return false
}

// Add returns the field-wise sum of s and o. Aggregators (the sharded
// store's Snapshot, multi-lock reports) use it to roll per-lock snapshots
// up into totals.
func (s Snapshot) Add(o Snapshot) Snapshot {
	for e := range events {
		*s.at(e) += *o.at(e)
	}
	return s
}

// SatSub returns a - b saturating at zero: the module-wide rule for
// differencing monotonic counters, so a mis-paired snapshot pair reads
// as idle instead of wrapping to 2^64.
func SatSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Sub returns the field-wise difference s - o, saturating at zero per
// field. Samplers and benches use it to turn two successive snapshots
// of a monotonic counter set into per-interval rates; saturation (rather
// than wraparound) keeps a rate readable even if the caller pairs
// snapshots from different sources by mistake.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	for e := range events {
		*s.at(e) = SatSub(*s.at(e), *o.at(e))
	}
	return s
}

// Read sums the stripes into a consistent-enough snapshot for reporting.
// Individual counters are read atomically; cross-counter skew is
// acceptable for the monitoring purposes they serve. Read of a nil *Stats
// returns a zero Snapshot.
func (s *Stats) Read() Snapshot {
	var out Snapshot
	if s != nil {
		for i := range s.stripes {
			for e := range events {
				*out.at(e) += s.stripes[i].c[e].Load()
			}
		}
	}
	return out
}
