// Package optimistic is the substrate for the sharded store's wait-free
// read path: Gets that never take the stripe lock.
//
// Malthusian Locks is a story about writers — culling and passivating the
// excess threads fighting over a lock so the survivors run at cache
// speed. Readers do not need to be in that fight at all. This package
// provides the two mechanisms that let them leave it:
//
//   - Seq, a per-stripe seqlock stamp. The write path (which already
//     holds the stripe lock) brackets every table mutation with
//     WriteBegin/WriteEnd, moving the stamp odd→even. A reader snapshots
//     the stamp, reads the table with no lock, and revalidates: an
//     unchanged even stamp proves no writer overlapped, so the read is
//     linearizable at any point inside the window (DESIGN.md §12).
//
//   - ReadPath, the spec grammar ("locked", "optimistic") consumers use
//     to select the read path.
//
// Validation failures are bounded: after DefaultRetries failed attempts
// the reader falls back to the stripe lock, so a write storm degrades
// reads to exactly the pre-optimistic behavior instead of livelocking
// them.
//
// The optimistic path is the default: the empty spec parses as
// "optimistic", and "locked" is the explicit opt-out. A backend that
// does not implement store.OptimisticReader keeps the locked path under
// either spec.
package optimistic

import (
	"fmt"
	"strings"
)

// DefaultRetries is the optimistic read path's validation-retry budget
// before a reader falls back to the stripe lock. Eight attempts rides
// out a burst of short writer critical sections; anything still failing
// after eight is a write storm the locked path handles better (it parks
// instead of burning cycles).
const DefaultRetries = 8

// ReadPath is a parsed read-path spec: how a shard.Map serves Gets.
// The zero value is the locked path; the empty spec is not (see Parse).
type ReadPath struct {
	// Optimistic selects seqlock-validated lock-free Gets on backends
	// that support them (store.OptimisticReader), with per-stripe
	// fallback to the lock after DefaultRetries failed validations.
	// False is the classic locked read path.
	Optimistic bool
}

// String renders the canonical spec, "locked" or "optimistic".
// Parse(String()) round-trips.
func (rp ReadPath) String() string {
	if !rp.Optimistic {
		return "locked"
	}
	return "optimistic"
}

// Parse parses a read-path spec. The empty spec is "optimistic", so
// zero-valued configs serve Gets lock-free wherever the backend allows.
// Recognized names, neither of which takes parameters:
//
//	optimistic   seqlock-validated lock-free Gets, DefaultRetries
//	             failed validations fall back to the lock
//	locked       every Get acquires the stripe lock
func Parse(s string) (ReadPath, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" && !hasQuery {
		name = "optimistic"
	}
	var rp ReadPath
	switch name {
	case "locked":
	case "optimistic":
		rp.Optimistic = true
	default:
		return ReadPath{}, fmt.Errorf("optimistic: unknown read path %q in spec %q (known read paths: locked, optimistic)",
			name, s)
	}
	if hasQuery {
		return ReadPath{}, fmt.Errorf("optimistic: spec %q: the %s read path takes no parameters (got %q)", s, name, query)
	}
	return rp, nil
}
