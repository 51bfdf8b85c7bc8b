// This file has one caller: the optimistic.pin_ns rung of
// benchmark/ladder.go, which times Pin/Unpin. Nothing in the product
// pins — shard's lock-free Get is guarded by the seqlock stamp alone
// (DESIGN.md §12) — and benchmark/ may only change in a benchmark-only
// PR (ROADMAP item 4), so the pair stays, behaviour unchanged, and the
// rung keeps measuring what it measured. Delete this file with the rung.

package optimistic

import (
	"sync/atomic"

	"repro/internal/core"
)

// Epoch is the reader half of a two-phase grace-period clock: striped
// pin counters, one pair per slot, that Pin counts a reader into under
// the phase it observed and Unpin counts it back out of. Nothing flips
// the phase; Pin still loads it so the pair costs what it always did.
type Epoch struct {
	phase atomic.Uint32
	slots []epochSlot
	mask  uint32
}

// epochSlotBytes pads each slot to two cache lines (matching the
// module-wide stripe padding) so pinning readers on different processors
// do not share a line.
const epochSlotBytes = 128

// epochSlot holds one stripe's pair of phase counters on its own lines.
//
//lockcheck:line=2
type epochSlot struct {
	c [2]atomic.Int64
	_ [epochSlotBytes - 16]byte
}

// NewEpoch returns an epoch with pin counters striped to the host's
// core.Parallelism rounded up to a power of two, the same sizing rule as
// the lock stats stripes.
func NewEpoch() *Epoch {
	n := core.Parallelism()
	p := 1
	for p < n {
		p <<= 1
	}
	return &Epoch{slots: make([]epochSlot, p), mask: uint32(p - 1)}
}

// Handle is a pinned reader's receipt: the slot and phase Pin counted it
// into, so Unpin decrements exactly the counter that was incremented.
type Handle struct {
	slot  *epochSlot
	phase uint32
}

// slotFor picks the caller's slot by core.Slot, the per-goroutine
// stack-address hash the striped lock stats use.
//
//lockcheck:optimistic
func (e *Epoch) slotFor() *epochSlot {
	return &e.slots[core.Slot(e.mask)]
}

// Pin counts the caller into its slot. Wait-free — two atomic
// operations, no branches on other readers.
//
//lockcheck:optimistic
func (e *Epoch) Pin() Handle {
	p := e.phase.Load() & 1
	s := e.slotFor()
	s.c[p].Add(1)
	return Handle{slot: s, phase: p}
}

// Unpin counts the caller back out of the slot Pin counted it into.
//
//lockcheck:optimistic
func (h Handle) Unpin() {
	h.slot.c[h.phase].Add(-1)
}
