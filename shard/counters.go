package shard

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/core"
	"repro/lock"
)

// Counters is the set of monotonic counters a stripe keeps and the map
// rolls up. StripeSnapshot and Snapshot embed it as cumulative values,
// and Sub of two of them is one interval's change, so a counter is
// declared here — its field and its line in counterFields — and nowhere
// else: roll-up (Add), differencing (Sub), /metrics and INFO (Each, Text)
// and the load generators' reports (ParseCounters, Sub) all follow.
type Counters struct {
	// DeadlineAttempts counts deadline-bounded point operations that
	// arrived at the stripe: context operations whose context can end
	// (a deadline, or Done() != nil). DeadlineMisses counts the subset
	// that expired before reaching the table. Both are the sums of the
	// per-class arrays below.
	DeadlineAttempts uint64
	DeadlineMisses   uint64
	// ClassDeadlineAttempts and ClassDeadlineMisses break the same
	// counters down by request class (WithClass; the wire protocol's
	// class byte). Index 0 is unclassified traffic — in-process callers
	// that never set a class land there.
	ClassDeadlineAttempts [NumClasses]uint64
	ClassDeadlineMisses   [NumClasses]uint64
	// OptimisticHits counts Gets served lock-free (seqlock validation
	// passed); OptimisticRetries counts failed attempts (a writer was
	// mid-section or moved the stamp inside the read window);
	// OptimisticFallbacks counts Gets that exhausted the retry budget and
	// took the stripe lock instead. All zero on a locked-read map and on
	// stripes whose backend declined store.OptimisticReader. Hits are the
	// Gets missing from Lock.Acquires: on a read-heavy optimistic stripe,
	// Acquires ≈ write volume while hits carry the read volume.
	OptimisticHits      uint64
	OptimisticRetries   uint64
	OptimisticFallbacks uint64
	// Lock is the stripe lock's CR event counters (zero when the spec
	// set stats=false). Its events are enumerated by core.Snapshot and
	// exported here under a "lock_" prefix.
	Lock core.Snapshot
}

// load reads the stripe's counters, its lock's included: the sum of its
// counter slots (see counterSlot).
func (s *stripe) load() Counters {
	var c Counters
	if st, ok := s.mu.(lock.Instrumented); ok {
		c.Lock = st.Stats()
	}
	for i := range s.ctr {
		sl := &s.ctr[i]
		c.OptimisticHits += sl.hits[0].Load()
		for k := 0; k < NumClasses; k++ {
			hits := sl.hits[1+k].Load()
			c.OptimisticHits += hits
			c.ClassDeadlineAttempts[k] += sl.attempts[k].Load() + hits
			c.ClassDeadlineMisses[k] += sl.misses[k].Load()
		}
		c.OptimisticRetries += sl.retries.Load()
		c.OptimisticFallbacks += sl.fallbacks.Load()
	}
	for k := 0; k < NumClasses; k++ {
		c.DeadlineAttempts += c.ClassDeadlineAttempts[k]
		c.DeadlineMisses += c.ClassDeadlineMisses[k]
	}
	return c
}

// counterFields enumerates Counters' own fields: export name ↔ field, by
// offset for the reason core's event enumeration gives (every leaf is a
// uint64, which TestCountersEnumerationClosed checks). A classed field is
// a [NumClasses] array with one leaf per request class; the others have
// a single leaf, addressed as class -1. The lock events follow from
// core.Snapshot's enumeration.
var counterFields = []struct {
	name    string
	classed bool
	off     uintptr
}{
	{"deadline_attempts", false, unsafe.Offsetof(Counters{}.DeadlineAttempts)},
	{"deadline_misses", false, unsafe.Offsetof(Counters{}.DeadlineMisses)},
	{"class_deadline_attempts", true, unsafe.Offsetof(Counters{}.ClassDeadlineAttempts)},
	{"class_deadline_misses", true, unsafe.Offsetof(Counters{}.ClassDeadlineMisses)},
	{"optimistic_hits", false, unsafe.Offsetof(Counters{}.OptimisticHits)},
	{"optimistic_retries", false, unsafe.Offsetof(Counters{}.OptimisticRetries)},
	{"optimistic_fallbacks", false, unsafe.Offsetof(Counters{}.OptimisticFallbacks)},
}

// span is the half-open range of classes field f's leaves are addressed
// by.
func span(f int) (lo, hi int) {
	if counterFields[f].classed {
		return 0, NumClasses
	}
	return -1, 0
}

// at returns field f's leaf for class (in f's span).
func (c *Counters) at(f, class int) *uint64 {
	if class < 0 {
		class = 0
	}
	return (*uint64)(unsafe.Add(unsafe.Pointer(c), counterFields[f].off+8*uintptr(class)))
}

// lockPrefix turns a core.Snapshot event name into its Counters name.
const lockPrefix = "lock_"

// Each calls fn once per counter with its export name — the <name> of
// shardd_[stripe_]<name>_total on /metrics and of the <name>= line in
// INFO — its request class (-1 for a counter that has none) and its
// value. Lock events come last, as "lock_" + core.Snapshot's names.
func (c Counters) Each(fn func(name string, class int, v uint64)) {
	for f := range counterFields {
		for k, hi := span(f); k < hi; k++ {
			fn(counterFields[f].name, k, *c.at(f, k))
		}
	}
	c.Lock.Each(func(name string, v uint64) { fn(lockPrefix+name, -1, v) })
}

// Add returns the counter-wise sum of c and o: the roll-up of stripe
// counters into map totals.
func (c Counters) Add(o Counters) Counters {
	for f := range counterFields {
		for k, hi := span(f); k < hi; k++ {
			*c.at(f, k) += *o.at(f, k)
		}
	}
	c.Lock = c.Lock.Add(o.Lock)
	return c
}

// Sub returns the counter-wise difference c - o, saturating at zero per
// counter (core.SatSub), so pairing snapshots from different maps by
// mistake reads as idle instead of wrapping.
func (c Counters) Sub(o Counters) Counters {
	for f := range counterFields {
		for k, hi := span(f); k < hi; k++ {
			*c.at(f, k) = core.SatSub(*c.at(f, k), *o.at(f, k))
		}
	}
	c.Lock = c.Lock.Sub(o.Lock)
	return c
}

// Text renders c as "name=value" lines, a classed counter as
// "name[class]=value": the counter lines of shardd's INFO reply, and the
// format ParseCounters reads back.
func (c Counters) Text() string {
	var b strings.Builder
	c.Each(func(name string, class int, v uint64) {
		if class >= 0 {
			name = fmt.Sprintf("%s[%d]", name, class)
		}
		fmt.Fprintf(&b, "%s=%d\n", name, v)
	})
	return b.String()
}

// set assigns v to the counter Each reports as (name, class) and reports
// whether there is one.
func (c *Counters) set(name string, class int, v uint64) bool {
	if event, ok := strings.CutPrefix(name, lockPrefix); ok && class < 0 {
		return c.Lock.Set(event, v)
	}
	for f := range counterFields {
		if lo, hi := span(f); counterFields[f].name == name && lo <= class && class < hi {
			*c.at(f, class) = v
			return true
		}
	}
	return false
}

// ParseCounters reads the counters out of text in Text's format. Lines
// that name no counter are skipped — INFO carries identity lines too —
// and a counter with no line stays zero; a counter line whose value is
// not a number is an error.
func ParseCounters(text string) (Counters, error) {
	var c Counters
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok {
			continue
		}
		class := -1
		if i := strings.IndexByte(name, '['); i >= 0 {
			k, err := strconv.Atoi(strings.TrimSuffix(name[i+1:], "]"))
			if err != nil || k < 0 {
				continue
			}
			name, class = name[:i], k
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if !c.set(name, class, v) {
			continue
		}
		if err != nil {
			return Counters{}, fmt.Errorf("shard: counter line %q: %w", line, err)
		}
	}
	return c, nil
}
