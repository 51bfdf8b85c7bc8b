// Package shard implements a concurrent, sharded key-value store whose
// per-stripe admission policy is a Malthusian lock chosen by registry
// spec. It is the first layer of this repository where real service
// traffic shapes — key skew, request deadlines, per-shard admission
// policy — are first-class.
//
// A Map is a power-of-two array of stripes. Each stripe is an independent
// single-threaded table built from Config.BackendSpec via store.New,
// guarded by its own lock built from Config.LockSpec via lock.New. Both
// policies — the admission policy that decides whether a hot stripe
// collapses or scales ("Malthusian Locks", EuroSys 2017), and the data
// structure that serves it — are runtime configuration, not code:
//
//	m, err := shard.New(shard.Config{
//		Stripes:     64,
//		LockSpec:    "mcscr-stp?fairness=500",
//		BackendSpec: "skiplist",
//	})
//
// Keys are routed by the high bits of the same 64-bit mixer the hashmap
// backend probes with its low bits, so stripe routing never degrades
// in-stripe probing. An ordered backend (store.Ordered: "skiplist",
// "rbtree") additionally enables Scan, ScanContext and the bounded
// ScanFirst — cross-stripe range queries in global key order, each one
// pass over the stripes; with the default "hashmap" backend those
// return ErrUnordered.
//
// # Configuration is for life
//
// A stripe owns its lock and its table for its whole life: both are
// built once, in New, from the map's specs. A culling lock keeps
// admission healthy under a convoy by itself, and an ordered backend
// serves scans from the first request, so nothing watches the map and
// re-picks either at runtime (DESIGN.md §8).
//
// # Deadlines
//
// Every operation has a plain and a context form (Get/GetContext, ...).
// The context forms bound the time-to-stripe: acquisition of the stripe
// lock goes through lock.ContextMutex.LockContext, so a request whose
// deadline expires while queued abandons its slot and returns ctx.Err()
// without touching the table. Once the stripe lock is held the operation
// itself is bounded (a few probes), so time-to-stripe is the deadline
// semantics that matters; a handoff that races the cancellation wins,
// exactly as documented for ContextMutex. A Get served lock-free (below)
// never queues, so it completes whatever its context says: the
// completed read wins the way a handoff does.
//
// # Reading without locks
//
// Config.ReadPath selects how Gets are served. The default
// ("optimistic") serves Gets with no lock at all on backends that
// support it (store.OptimisticReader — the hashmap backend): the
// stripe's write path brackets every mutation with a seqlock stamp
// (optimistic.Seq) beside the table, and a reader snapshots the stamp,
// probes the table with torn-read-safe atomic loads, and revalidates. An
// unchanged stamp proves no writer overlapped, making the read
// linearizable; a changed stamp retries, and after
// optimistic.DefaultRetries retries the reader falls back to the stripe
// lock — so a write storm degrades reads to exactly the locked path's
// behavior instead of livelocking them. Per-stripe hit/retry/fallback
// counters land in StripeSnapshot.
// A backend that declines the interface (skiplist, rbtree) serves every
// Get under the stripe lock, and "locked" asks for that on every
// backend. A lock-free hit is not an admission: it leaves no admission
// history and never runs the Injector. See DESIGN.md §12 for the full
// protocol.
//
// # Observability
//
// Each stripe's lock keeps the usual CR event counters, and optionally an
// admission history: context operations that carry a client id (see
// WithClientID) record it inside the critical section. Snapshot rolls
// both up — aggregate core stats for the whole map, and per-stripe
// fairness summaries (LWSS, MTTR, Gini, RSTDDEV via metrics.Summarize),
// which is where collapse actually shows up: a uniformly loaded map can
// hide one collapsed stripe in its averages, but not in its per-stripe
// LWSS. Counters.Sub turns two successive snapshots' counters into
// per-interval rates — what shardd's /metrics sampler reports.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/lock"
	"repro/metrics"
	"repro/optimistic"
	"repro/store"
)

// Defaults for Config zero values.
const (
	DefaultStripes     = 16
	DefaultLockSpec    = "mcscr-stp?cr=true"
	DefaultBackendSpec = "hashmap"
)

// NumClasses is the number of request classes the per-stripe deadline
// accounting distinguishes. Class 0 is "unclassified": every context
// operation whose context does not carry a class (all in-process callers
// that predate classes, and wire requests that leave the class byte
// zero) lands there, so existing callers see exactly the counters they
// always did. Classes 1..NumClasses-1 are free for callers to assign
// meaning to (the wire protocol carries one class byte per request);
// per-class budgets are the first half of per-class SLOs.
const NumClasses = 4

// ErrUnordered is returned by Scan, ScanContext and ScanFirst when the
// map's backend does not maintain key order (it does not satisfy
// store.Ordered). Build the map with an ordered backend ("skiplist",
// "rbtree") to serve range queries.
var ErrUnordered = errors.New("shard: backend is not ordered")

// Config configures a Map. The zero value is usable: DefaultStripes
// stripes of DefaultLockSpec locks, no history recording.
type Config struct {
	// Stripes is the number of stripes, rounded up to a power of two.
	// 0 means DefaultStripes.
	Stripes int

	// LockSpec is the registry spec (see lock.New) each stripe's lock is
	// built from. Empty means DefaultLockSpec, "mcscr-stp?cr=true": the
	// Malthusian MCS lock under restriction at admission, so at most
	// GOMAXPROCS goroutines reach a stripe's lock and the rest park until
	// the admitted set drains. Specs with stats=false still work;
	// Snapshot then reports zero lock counters.
	LockSpec string

	// BackendSpec is the registry spec (see store.New) each stripe's
	// table is built from. Empty means DefaultBackendSpec ("hashmap").
	// An ordered backend ("skiplist", "rbtree") additionally enables
	// Scan, ScanContext and ScanFirst.
	BackendSpec string

	// Seed, when nonzero, seeds each stripe's lock and backend PRNGs
	// with distinct values derived from it (unless a spec pins seed=
	// itself, which wins). Zero leaves both on their fixed default
	// seeds.
	Seed uint64

	// Capacity pre-sizes the map for this many total keys, spread evenly
	// across stripes, where the backend can pre-size at all (the hashmap
	// backend's slot array; the tree and skip-list backends allocate
	// per key and ignore it). 0 uses the tables' minimum size.
	Capacity int

	// HistoryCap, when positive, makes each stripe record the admission
	// history of client-identified context operations (see WithClientID),
	// up to HistoryCap admissions per stripe; recording then stops so a
	// long-lived service cannot grow the history without bound. The full
	// capacity is preallocated per stripe (8 bytes per admission), so
	// recording never reallocates inside the critical section — size it
	// with Stripes in mind. 0 disables recording and Snapshot's fairness
	// summaries come back empty. Only operations that take the stripe
	// lock are admissions: on the default read path a Get served
	// lock-free records nothing (see ReadPath).
	HistoryCap int

	// ReadPath selects how Gets are served (see optimistic.Parse).
	// Empty or "optimistic" serves Gets lock-free via seqlock validation
	// on stripes whose backend implements store.OptimisticReader, falling
	// back to the lock after optimistic.DefaultRetries failed
	// validations. Stripes whose backend declines the interface keep the
	// locked path. "locked" is the opt-out: every Get acquires the stripe
	// lock, on every backend.
	//
	// Three consequences of a lock-free hit: the Get leaves no admission
	// history (WithClientID records inside the critical section the
	// optimistic path exists to skip), so HistoryCap's LWSS counts writes
	// and fallbacks only; the Injector's InCS does not run for it; and a
	// hit races a concurrent deadline expiry the way a lock handoff does
	// — the completed read wins, even over a context that had already
	// ended, and the budgeted attempt counts no miss.
	ReadPath string
}

// stripe is one shard, built once in New and kept for the map's whole
// life: its lock, its table with the table's read extensions, and its
// counters. Every table access holds mu. The header holds only fields
// that are written once, in New, plus seq, which a write bumps twice
// under the lock: every counter the op paths add to lives in ctr, one
// padded slot per goroutine hash, so a lock-free Get writes no line that
// another CPU writes. The lock object and the table live behind
// interfaces, each its own allocation.
//
// The header is two cache lines with at least 8 trailing bytes of pad.
// A stripe slice past 512 bytes begins 8 bytes past a line (the
// allocation header of a pointerful object), so a header can spill
// into its neighbour's first line, but only with pad:
// TestStripeLinesExclusive checks that no line holds the fields of two
// stripes, for 1 to 128 stripes.
//
//lockcheck:line=2
type stripe struct {
	// opt is table's torn-read-safe read extension, non-nil only when
	// the map's read path is optimistic AND the backend opted in
	// (store.OptimisticReader) — the per-stripe gate of the lock-free
	// Get. seq is the stripe's seqlock stamp: bumped odd/even around
	// every table mutation (under the stripe lock) and validated by
	// lock-free readers. The stamp is maintained on every write path
	// regardless of read path — two uncontended atomic adds under a held
	// lock. opt, seq and ctr come first: they are all that a lock-free
	// Get reads of the header.
	opt store.OptimisticReader
	seq optimistic.Seq
	ctr []counterSlot // a power of two of them; see counterSlot

	mu lock.ContextMutex

	// table is the stripe's storage. The optimistic read path goes
	// through opt, never table.
	//
	//lockcheck:guardedby shard.stripe.mu
	table   store.Backend
	ordered store.Ordered // table, when it maintains key order; else nil

	rec  *metrics.Recorder // nil when history is disabled
	hcap int

	_ [16]byte
}

// counterSlot is one goroutine slot's share of a stripe's op-path
// counters. An op adds to the slot core.Slot picks for its goroutine,
// and stripe.load sums the slots, so every counter stays exact while
// goroutines on different CPUs add to different lines. A slot is
// padded to 128 bytes, the module's rule for counter stripes, so that
// neither it nor the adjacent-line prefetcher pairs it with another.
//
// Deadline accounting counts budgeted point operations arriving at the
// stripe and those that expired before reaching it, by request class
// (WithClass; index 0 is unclassified traffic). A point context
// operation is budgeted when its context can end at all (a deadline, or
// ctx.Done() != nil) — the operation whose deadline semantics the lock
// machinery bounds, and the user-facing signal a caller's SLO is stated
// in. A Get served lock-free books both its hit and its budgeted
// arrival with one add: hits[0] counts unbudgeted hits and hits[1+c]
// budgeted hits of class c, so a class's attempts are attempts[c] (the
// arrivals at the stripe lock) plus hits[1+c].
//
// Optimistic read-path accounting: hits counts Gets served lock-free
// (validation passed); retries counts failed attempts (writer
// mid-section at snapshot, or validation failure); fallbacks counts
// Gets that exhausted the retry budget and fell back to the stripe
// lock. Gets on stripes whose backend declined the optimistic path
// count nothing here — they are locked-path traffic, not failed
// optimism.
//
//lockcheck:line=2
type counterSlot struct {
	hits      [1 + NumClasses]atomic.Uint64
	attempts  [NumClasses]atomic.Uint64
	misses    [NumClasses]atomic.Uint64
	retries   atomic.Uint64
	fallbacks atomic.Uint64
	_         [8]byte
}

// counterSlotsPerCPU is how many counter slots a stripe keeps per CPU
// that can run at once (core.Parallelism): goroutines, not CPUs, pick
// slots, so a few times more slots than CPUs keeps two running
// goroutines off one slot.
const counterSlotsPerCPU = 16

// newCounterSlots returns a stripe's counter slots:
// counterSlotsPerCPU × core.Parallelism, rounded up to a power of two.
func newCounterSlots() []counterSlot {
	n := counterSlotsPerCPU * core.Parallelism()
	return make([]counterSlot, 1<<bits.Len(uint(n-1)))
}

// counters returns the calling goroutine's counter slot.
//
//lockcheck:optimistic
func (s *stripe) counters() *counterSlot {
	return &s.ctr[core.Slot(uint32(len(s.ctr)-1))]
}

// lock acquires the stripe lock, bounded by ctx unless ctx is nil (the
// plain, uncancellable path). After a nil error the caller holds s.mu,
// may read s.table and must s.mu.Unlock(). An error return is the lock's
// one Cancels event.
//
//lockcheck:acquires s.mu
func (s *stripe) lock(ctx context.Context) error {
	if ctx == nil {
		s.mu.Lock()
		return nil
	}
	return s.mu.LockContext(ctx)
}

// Injector is the data-plane fault hook (see the fault package). When
// one is installed with SetInjector, every point operation that takes
// the stripe lock (every write, and every Get not served lock-free)
// calls InCS with the owning stripe's index while holding that lock — so
// an injected stall lengthens the critical section exactly where the
// paper's convoy dynamics punish it. InCS must be safe for concurrent
// use and should be cheap when no fault is active: it runs under the
// lock the whole map is built to keep short.
type Injector interface {
	InCS(stripe int)
}

// Map is the sharded store. All methods are safe for concurrent use.
type Map struct {
	stripes []stripe
	shift   uint // stripe index = Mix(key) >> shift

	// inj is the installed fault injector; nil (the normal case) costs
	// one atomic pointer load per point op.
	inj atomic.Pointer[Injector]

	// readPath is the parsed Config.ReadPath, immutable after New: the
	// hot-path gate of the optimistic Get is one plain bool read.
	readPath optimistic.ReadPath

	// ordered reports whether the stripes' backend maintains key order;
	// every stripe is built from the same spec.
	ordered bool

	cfgLock    string // the resolved construction-time lock spec
	cfgBackend string // the resolved construction-time backend spec
}

// New builds a Map from cfg. It fails with a descriptive error when the
// lock or backend spec is malformed or names an unknown lock or backend.
func New(cfg Config) (*Map, error) {
	n := cfg.Stripes
	if n <= 0 {
		n = DefaultStripes
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n)) // round up to a power of two
	}
	spec := cfg.LockSpec
	if spec == "" {
		spec = DefaultLockSpec
	}
	bspec := cfg.BackendSpec
	if bspec == "" {
		bspec = DefaultBackendSpec
	}
	perStripe := 0
	if cfg.Capacity > 0 {
		perStripe = (cfg.Capacity + n - 1) / n
	}
	rp, err := optimistic.Parse(cfg.ReadPath)
	if err != nil {
		return nil, fmt.Errorf("shard: read path: %w", err)
	}
	m := &Map{
		stripes:    make([]stripe, n),
		shift:      uint(64 - bits.TrailingZeros(uint(n))),
		readPath:   rp,
		cfgLock:    spec,
		cfgBackend: bspec,
	}
	for i := range m.stripes {
		var lockOpts []lock.Option
		var storeOpts []store.Option
		if perStripe > 0 {
			storeOpts = append(storeOpts, store.WithCapacity(perStripe))
		}
		if cfg.Seed != 0 {
			seed := derivedSeed(cfg.Seed, i)
			lockOpts = append(lockOpts, lock.WithSeed(seed))
			storeOpts = append(storeOpts, store.WithSeed(seed))
		}
		mu, err := buildLock(spec, lockOpts)
		if err != nil {
			return nil, err
		}
		table, err := store.New(bspec, storeOpts...)
		if err != nil {
			return nil, fmt.Errorf("shard: stripe table: %w", err)
		}
		ordered, _ := table.(store.Ordered)
		var opt store.OptimisticReader
		if rp.Optimistic {
			opt, _ = table.(store.OptimisticReader)
		}
		var rec *metrics.Recorder
		if cfg.HistoryCap > 0 {
			// Preallocate the whole (bounded) cap: a growth-copy of a
			// multi-MB history inside the critical section would charge an
			// instrumentation stall to every queued request's deadline.
			rec = metrics.NewRecorder(cfg.HistoryCap)
		}
		m.stripes[i] = stripe{
			opt:     opt,
			ctr:     newCounterSlots(),
			mu:      mu,
			table:   table,
			ordered: ordered,
			rec:     rec,
			hcap:    cfg.HistoryCap,
		}
		m.ordered = ordered != nil
	}
	return m, nil
}

// buildLock builds a stripe's lock from spec.
func buildLock(spec string, opts []lock.Option) (lock.ContextMutex, error) {
	mtx, err := lock.New(spec, opts...)
	if err != nil {
		return nil, fmt.Errorf("shard: stripe lock: %w", err)
	}
	cm, ok := mtx.(lock.ContextMutex)
	if !ok {
		// Registry locks all satisfy ContextMutex; a custom Register
		// that does not cannot serve deadline-bounded operations.
		return nil, fmt.Errorf("shard: lock spec %q builds a %T, which is not a lock.ContextMutex", spec, mtx)
	}
	return cm, nil
}

// derivedSeed gives stripe i a distinct seed so fairness trials (and
// skip-list towers) do not run in lockstep across stripes; a spec's
// seed= overrides.
func derivedSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// MustNew is New for initialization paths where a malformed config is a
// programming error; it panics instead of returning one.
func MustNew(cfg Config) *Map {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// SetInjector installs (or, with nil, removes) the fault injector whose
// InCS hook runs inside every locked point operation's critical section
// (see Injector). The
// swap is atomic with respect to in-flight operations: each op reads the
// injector once. With none installed the hook costs a single atomic nil
// check per operation.
func (m *Map) SetInjector(inj Injector) {
	if inj == nil {
		m.inj.Store(nil)
		return
	}
	m.inj.Store(&inj)
}

// inject runs the installed injector's critical-section hook for stripe
// i; the caller holds stripe i's lock.
//
//lockcheck:cs
func (m *Map) inject(i int) {
	if p := m.inj.Load(); p != nil {
		(*p).InCS(i)
	}
}

// Stripes returns the stripe count (a power of two).
func (m *Map) Stripes() int { return len(m.stripes) }

// StripeFor returns the index of the stripe serving key.
func (m *Map) StripeFor(key uint64) int { return int(hashmap.Mix(key) >> m.shift) }

// clientIDKey carries a client identity through a context (WithClientID).
type clientIDKey struct{}

// WithClientID returns a context carrying the caller's client id. Context
// operations on a history-recording Map (Config.HistoryCap > 0) record
// the id into the owning stripe's admission history, which is what feeds
// Snapshot's per-stripe LWSS/Gini. Operations without an id (or any id on
// a non-recording Map) are served identically but leave no history, and
// so does a Get served lock-free (Config.ReadPath).
func WithClientID(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, clientIDKey{}, id)
}

// ClientID extracts the client id set by WithClientID.
func ClientID(ctx context.Context) (int, bool) {
	id, ok := ctx.Value(clientIDKey{}).(int)
	return id, ok
}

// classKey carries a request class through a context (WithClass).
type classKey struct{}

// WithClass returns a context carrying a request class for per-class
// deadline accounting. Budgeted context operations (those whose context
// can end) count their stripe arrival and any deadline miss under this
// class in StripeSnapshot.ClassDeadlineAttempts/ClassDeadlineMisses.
// Out-of-range classes clamp to 0 (unclassified) — a caller that never
// calls WithClass is indistinguishable from one that asked for class 0,
// which is what keeps every pre-class in-process caller unchanged.
func WithClass(ctx context.Context, class int) context.Context {
	if class < 0 || class >= NumClasses {
		class = 0
	}
	return context.WithValue(ctx, classKey{}, class)
}

// Class extracts the request class set by WithClass; 0 (unclassified)
// when the context carries none.
func Class(ctx context.Context) int {
	c, _ := ctx.Value(classKey{}).(int)
	return c
}

// client resolves ctx's admission-history id before the stripe lock is
// taken: the context.Value walk (arbitrarily deep in a real request's
// context chain) must not lengthen the critical section the lock exists
// to keep short. ok is false when recording is off or ctx carries no id.
func (s *stripe) client(ctx context.Context) (int, bool) {
	if s.rec == nil {
		return 0, false
	}
	return ClientID(ctx)
}

// record appends one admission, inside the critical section (the stripe
// lock serializes appends, the same protocol metrics.Recorder documents;
// the cap check reads the recorder, so it too must run under the lock).
//
//lockcheck:cs
func (s *stripe) record(id int) {
	if s.rec.Len() < s.hcap {
		s.rec.Record(id)
	}
}

// getOptimistic attempts one lock-free Get on s: snapshot the stripe's
// seqlock stamp, probe the backend with torn-read-safe loads,
// revalidate. cls is the Get's request class, -1 when it is not
// budgeted (see budget): a hit books itself and its budgeted arrival
// with one add. served is false when the stripe cannot serve
// optimistic reads (backend declined store.OptimisticReader) or the
// retry budget is exhausted — the caller then takes the locked path.
// A validated hit is linearizable at some instant inside its
// read window (see optimistic.Seq), so a hit is exactly as correct as a
// locked Get, minus the queueing.
//
// The injector hook does not run here: injected faults model long
// critical sections, and this path's entire point is having none. A
// stall armed on the write path lengthens writer sections, which this
// path observes as validation failures and — past the budget —
// fallbacks, which is the intended chaos behavior.
//
//lockcheck:optimistic
func (m *Map) getOptimistic(s *stripe, key uint64, cls int) (val uint64, ok, served bool) {
	if s.opt == nil {
		return 0, false, false
	}
	c := s.counters()
	for attempt := 0; attempt <= optimistic.DefaultRetries; attempt++ {
		stamp, stable := s.seq.ReadBegin()
		if stable {
			v, present := s.opt.GetOptimistic(key)
			if s.seq.Validate(stamp) {
				c.hits[1+cls].Add(1)
				return v, present, true
			}
		}
		c.retries.Add(1)
	}
	c.fallbacks.Add(1)
	return 0, false, false
}

// budget resolves a point operation's request class before it reaches
// its stripe: -1 when the operation is not budgeted, else its class. An
// operation is budgeted when its context can end at all — it carries a
// deadline or, failing that, can be cancelled (Done() != nil; asked
// second, because a deadline context may have to arm a timer to
// answer): only those can miss, and only those are SLO traffic. A nil
// ctx (the plain forms) is never budgeted. Monitoring paths (Snapshot,
// Len, Range, Scan) never count — a monitor polling a collapsed stripe
// must not dilute the very miss rate it reports.
// The class lookup (a context.Value walk) is paid only by budgeted
// operations, which already built a cancellable context.
func budget(ctx context.Context) int {
	if ctx == nil {
		return -1
	}
	if _, ok := ctx.Deadline(); !ok && ctx.Done() == nil {
		return -1
	}
	return Class(ctx)
}

// admit is a point operation's arrival at its stripe lock: it acquires
// the lock — bounded by ctx unless ctx is nil — and does the
// per-arrival accounting once for all three verbs: the budgeted attempt
// of class cls (see budget) and, if the deadline expires in the queue,
// its miss; and the admission-history record, inside the critical
// section. After a nil error the caller must s.mu.Unlock().
//
//lockcheck:acquires s.mu
func (s *stripe) admit(ctx context.Context, cls int) error {
	if ctx == nil {
		s.mu.Lock()
		return nil
	}
	id, recording := s.client(ctx)
	var c *counterSlot
	if cls >= 0 {
		c = s.counters()
		c.attempts[cls].Add(1)
	}
	if err := s.mu.LockContext(ctx); err != nil {
		if c != nil {
			c.misses[cls].Add(1)
		}
		return err
	}
	if recording {
		s.record(id)
	}
	return nil
}

// Get returns the value for key and whether it was present.
func (m *Map) Get(key uint64) (uint64, bool) {
	v, ok, _ := m.get(nil, key)
	return v, ok
}

// GetContext is Get with the stripe acquisition bounded by ctx. On the
// optimistic read path a validated lock-free hit completes the Get even
// if ctx has already expired — the hit wins the race the way a lock
// handoff racing a cancellation does — and counts a budgeted attempt
// with no miss.
func (m *Map) GetContext(ctx context.Context, key uint64) (val uint64, ok bool, err error) {
	return m.get(ctx, key)
}

// Put inserts or updates key. It reports whether the key was new.
func (m *Map) Put(key, val uint64) bool {
	fresh, _ := m.put(nil, key, val)
	return fresh
}

// PutContext is Put with the stripe acquisition bounded by ctx.
func (m *Map) PutContext(ctx context.Context, key, val uint64) (fresh bool, err error) {
	return m.put(ctx, key, val)
}

// Delete removes key; it reports whether the key was present.
func (m *Map) Delete(key uint64) bool {
	present, _ := m.del(nil, key)
	return present
}

// DeleteContext is Delete with the stripe acquisition bounded by ctx.
func (m *Map) DeleteContext(ctx context.Context, key uint64) (present bool, err error) {
	return m.del(ctx, key)
}

// get, put and del are the one body of each point verb; the exported
// plain and Context forms above differ only in the ctx they pass. A nil
// ctx is the plain form: it cannot fail, is never budgeted and leaves no
// admission history (see admit).

func (m *Map) get(ctx context.Context, key uint64) (uint64, bool, error) {
	i := m.StripeFor(key)
	s := &m.stripes[i]
	cls := budget(ctx)
	if m.readPath.Optimistic {
		if v, ok, served := m.getOptimistic(s, key, cls); served {
			return v, ok, nil
		}
	}
	if err := s.admit(ctx, cls); err != nil {
		return 0, false, err
	}
	m.inject(i)
	v, ok := s.table.Get(key)
	s.mu.Unlock()
	return v, ok, nil
}

func (m *Map) put(ctx context.Context, key, val uint64) (bool, error) {
	i := m.StripeFor(key)
	s := &m.stripes[i]
	if err := s.admit(ctx, budget(ctx)); err != nil {
		return false, err
	}
	s.seq.WriteBegin()
	m.inject(i)
	fresh := s.table.Put(key, val)
	s.seq.WriteEnd()
	s.mu.Unlock()
	return fresh, nil
}

func (m *Map) del(ctx context.Context, key uint64) (bool, error) {
	i := m.StripeFor(key)
	s := &m.stripes[i]
	if err := s.admit(ctx, budget(ctx)); err != nil {
		return false, err
	}
	s.seq.WriteBegin()
	m.inject(i)
	present := s.table.Delete(key)
	s.seq.WriteEnd()
	s.mu.Unlock()
	return present, nil
}

// Len returns the number of keys present. Like every multi-stripe read it
// is a per-stripe-consistent sum, not a point-in-time snapshot.
func (m *Map) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += s.table.Len()
		s.mu.Unlock()
	}
	return n
}

// Range calls fn for every key/value pair until fn returns false. It
// visits stripes one at a time: each stripe's pairs are copied out under
// that stripe's lock and fn runs on the copy with no lock held, so fn may
// call back into the Map freely. The traversal is per-stripe consistent;
// concurrent writers may be observed in some stripes and not others.
func (m *Map) Range(fn func(key, val uint64) bool) {
	var pairs []kv
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		pairs = pairs[:0]
		s.table.Range(func(k, v uint64) bool {
			pairs = append(pairs, kv{k, v})
			return true
		})
		s.mu.Unlock()
		for _, p := range pairs {
			if !fn(p.key, p.val) {
				return
			}
		}
	}
}

type kv struct{ key, val uint64 }

// LockSpec returns the spec every stripe's lock was built from
// (Config.LockSpec, resolved).
func (m *Map) LockSpec() string { return m.cfgLock }

// BackendSpec returns the spec every stripe's table was built from
// (Config.BackendSpec, resolved).
func (m *Map) BackendSpec() string { return m.cfgBackend }

// ReadPath returns the canonical form of the read-path spec the map was
// built with: "locked" or "optimistic".
func (m *Map) ReadPath() string { return m.readPath.String() }
