package lock

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// These tests pin the memory-layout contract the hot paths rely on: the
// contended word of every lock sits on its own cache line, away from the
// holder-only and configuration fields, and pooled waiter nodes are
// exactly line-sized so they occupy line-aligned size-class slots and
// local spinning never false-shares with a neighbouring node.

const line = uintptr(pad.CacheLineSize)

// assertGap checks that field b starts at least one full cache line after
// field a, so a store to a cannot invalidate b's line.
func assertGap(t *testing.T, what string, a, b uintptr) {
	t.Helper()
	if b < a+line {
		t.Errorf("%s: offsets %d and %d share a cache line (gap %d < %d)",
			what, a, b, b-a, line)
	}
}

func TestNodeSizesAreLineMultiples(t *testing.T) {
	for name, size := range map[string]uintptr{
		"mcsNode":  unsafe.Sizeof(mcsNode{}),
		"lifoNode": unsafe.Sizeof(lifoNode{}),
	} {
		if size%line != 0 || size == 0 {
			t.Errorf("%s size %d: want a non-zero multiple of %d", name, size, line)
		}
	}
	// The nodes should stay single-line: growing past 64 bytes silently
	// moves them to a larger, still aligned size class, but doubles pool
	// memory — fail loudly so it is a deliberate choice.
	if s := unsafe.Sizeof(mcsNode{}); s != line {
		t.Errorf("mcsNode size %d: want exactly %d", s, line)
	}
	if s := unsafe.Sizeof(lifoNode{}); s != line {
		t.Errorf("lifoNode size %d: want exactly %d", s, line)
	}
}

func TestMCSLayout(t *testing.T) {
	var l MCS
	assertGap(t, "MCS tail/owner", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.owner))
	assertGap(t, "MCS tail/stats", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.stats))
}

func TestMCSCRLayout(t *testing.T) {
	var l MCSCR
	assertGap(t, "MCSCR tail/owner", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.owner))
	assertGap(t, "MCSCR tail/psHead", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.psHead))
	assertGap(t, "MCSCR tail/psSize", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.psSize))
	assertGap(t, "MCSCR tail/stats", unsafe.Offsetof(l.tail), unsafe.Offsetof(l.stats))
}

func TestTASLayout(t *testing.T) {
	var l TAS
	assertGap(t, "TAS word/stats", unsafe.Offsetof(l.word), unsafe.Offsetof(l.stats))
}

func TestLIFOCRLayout(t *testing.T) {
	var l LIFOCR
	assertGap(t, "LIFOCR top/lockedEmpty", unsafe.Offsetof(l.top), unsafe.Offsetof(l.lockedEmpty))
	assertGap(t, "LIFOCR top/trial", unsafe.Offsetof(l.top), unsafe.Offsetof(l.trial))
	assertGap(t, "LIFOCR top/stats", unsafe.Offsetof(l.top), unsafe.Offsetof(l.stats))
}

func TestLOITERLayout(t *testing.T) {
	var l LOITER
	assertGap(t, "LOITER outer/standby", unsafe.Offsetof(l.outer), unsafe.Offsetof(l.standby))
	assertGap(t, "LOITER standby/inner", unsafe.Offsetof(l.standby), unsafe.Offsetof(l.inner))
	assertGap(t, "LOITER outer/stats", unsafe.Offsetof(l.outer), unsafe.Offsetof(l.stats))
}
