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
//   - ReadPath, the spec grammar ("locked", "optimistic?retries=8")
//     consumers use to select the read path, in the same URL-parameter
//     style as the lock/store/fault registries.
//
// Validation failures are bounded: after Retries failed attempts the
// reader falls back to the stripe lock, so a write storm degrades reads
// to exactly the pre-optimistic behavior instead of livelocking them.
//
// The optimistic path is the default: the empty spec parses as
// "optimistic", and "locked" is the explicit opt-out. A backend that
// does not implement store.OptimisticReader keeps the locked path under
// either spec.
package optimistic

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// DefaultRetries is the optimistic read path's default validation-retry
// budget before a reader falls back to the stripe lock. Eight attempts
// rides out a burst of short writer critical sections; anything still
// failing after eight is a write storm the locked path handles better
// (it parks instead of burning cycles).
const DefaultRetries = 8

// ReadPath is a parsed read-path spec: how a shard.Map serves Gets.
// The zero value is the locked path; the empty spec is not (see Parse).
type ReadPath struct {
	// Optimistic selects seqlock-validated lock-free Gets on backends
	// that support them (store.OptimisticReader), with per-stripe
	// fallback to the lock. False is the classic locked read path.
	Optimistic bool
	// Retries is the per-Get validation retry budget before falling
	// back to the stripe lock. Meaningful only when Optimistic.
	Retries int
}

// String renders the canonical spec ("locked", "optimistic",
// "optimistic?retries=4"). Parse(String()) round-trips.
func (rp ReadPath) String() string {
	if !rp.Optimistic {
		return "locked"
	}
	if rp.Retries == DefaultRetries {
		return "optimistic"
	}
	return fmt.Sprintf("optimistic?retries=%d", rp.Retries)
}

// readGrammar parses the optimistic path's parameters. locked takes
// none, enforced in Parse.
var readGrammar = spec.NewGrammar[func(*ReadPath)]("optimistic", map[string]spec.ParamFunc[func(*ReadPath)]{
	"retries": func(v string) (func(*ReadPath), error) {
		n, err := spec.PosInt(v)
		if err != nil {
			return nil, err
		}
		return func(rp *ReadPath) { rp.Retries = n }, nil
	},
})

// Parse parses a read-path spec. The empty spec is "optimistic" with
// DefaultRetries, so zero-valued configs serve Gets lock-free wherever
// the backend allows. Recognized names:
//
//	optimistic[?retries=N]   seqlock-validated lock-free Gets,
//	                         N failed validations fall back to the lock
//	locked                   every Get acquires the stripe lock
func Parse(s string) (ReadPath, error) {
	name, query, _ := strings.Cut(s, "?")
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" && query == "" {
		name = "optimistic"
	}
	switch name {
	case "locked":
		if query != "" {
			return ReadPath{}, fmt.Errorf("optimistic: spec %q: the locked read path takes no parameters", s)
		}
		return ReadPath{}, nil
	case "optimistic", "seqlock":
		rp := ReadPath{Optimistic: true, Retries: DefaultRetries}
		opts, err := readGrammar.Parse(s, query)
		if err != nil {
			return ReadPath{}, err
		}
		for _, opt := range opts {
			opt(&rp)
		}
		return rp, nil
	default:
		return ReadPath{}, fmt.Errorf("optimistic: unknown read path %q in spec %q (known read paths: locked, optimistic)",
			name, s)
	}
}
