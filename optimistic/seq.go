package optimistic

import "sync/atomic"

// Seq is a seqlock stamp: a version counter that is even while the
// guarded structure is stable and odd while a writer is inside its
// critical section. It does not replace the stripe lock — writers still
// serialize through it — it *publishes* the lock's critical sections so
// readers can detect whether one overlapped their lock-free read.
//
// Writer protocol (under the stripe lock, so WriteBegin/WriteEnd never
// race each other):
//
//	s.seq.WriteBegin()   // stamp even→odd: readers in flight will fail
//	mutate the table
//	s.seq.WriteEnd()     // stamp odd→even: new stable version
//
// Reader protocol (no lock):
//
//	stamp, ok := s.seq.ReadBegin()  // !ok: writer active, retry
//	read the table (torn-read-safe loads only)
//	if s.seq.Validate(stamp) { the read is linearizable }
//
// Validate compares for equality, not evenness: a writer that begins
// *and* ends inside the reader's window still moves the stamp by two, so
// the reader cannot be fooled by a fast writer.
//
// All operations are sequentially consistent atomics. That is what makes
// the protocol sound in Go's memory model: if a reader's data load
// observes any store from a writer's critical section, the WriteBegin
// that preceded that store in program order is ordered before the
// reader's Validate load in the single total order of SC operations, so
// Validate must see the moved stamp and fail. (A pure happens-before
// argument is not enough — the reader and writer never synchronize.)
//
// The zero Seq is valid and stable at stamp 0.
type Seq struct {
	v atomic.Uint64
}

// WriteBegin opens a writer critical section: the stamp becomes odd.
// Callers must hold the stripe lock.
//
//lockcheck:cs
func (s *Seq) WriteBegin() {
	s.v.Add(1)
}

// WriteEnd closes a writer critical section: the stamp becomes the next
// even value. Callers must hold the stripe lock.
//
//lockcheck:cs
func (s *Seq) WriteEnd() {
	s.v.Add(1)
}

// ReadBegin snapshots the stamp for a lock-free read. ok is false when a
// writer is currently inside its critical section (odd stamp) — the
// caller should back off and retry rather than read state mid-mutation.
//
//lockcheck:optimistic
func (s *Seq) ReadBegin() (stamp uint64, ok bool) {
	stamp = s.v.Load()
	return stamp, stamp&1 == 0
}

// Validate reports whether the stamp is unchanged since ReadBegin: no
// writer critical section overlapped the reader's window, so everything
// loaded inside it is a consistent stable version.
//
//lockcheck:optimistic
func (s *Seq) Validate(stamp uint64) bool {
	return s.v.Load() == stamp
}
