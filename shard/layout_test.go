package shard

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/pad"
)

// fieldsEnd is the end offset of t's last named field: where its pad
// begins.
func fieldsEnd(t reflect.Type) uintptr {
	var end uintptr
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Name != "_" {
			end = max(end, f.Offset+f.Type.Size())
		}
	}
	return end
}

// sharedLine reports the first element of an array at base whose named
// fields share a cache line with the next element's, or -1.
func sharedLine(base, stride, end uintptr, n int) int {
	const line = pad.CacheLineSize
	for i := 0; i+1 < n; i++ {
		last := (base + uintptr(i)*stride + end - 1) / line
		next := (base + uintptr(i+1)*stride) / line
		if last >= next {
			return i
		}
	}
	return -1
}

// TestStripeLinesExclusive pins the layout the stripe and counterSlot
// comments promise: no cache line holds the fields of two stripes, or of
// two counter slots, however the allocator places the arrays — a slice
// past 512 bytes starts 8 bytes past a line, which the trailing pad
// absorbs. And a stripe's counters are 16 slots per CPU, rounded up to
// a power of two: 4 KB at 2 CPUs.
func TestStripeLinesExclusive(t *testing.T) {
	stripeEnd := fieldsEnd(reflect.TypeOf(stripe{}))
	slotEnd := fieldsEnd(reflect.TypeOf(counterSlot{}))
	if size := unsafe.Sizeof(counterSlot{}); size != 128 {
		t.Fatalf("counterSlot is %d bytes, want 128", size)
	}
	wantSlots := 1
	for wantSlots < counterSlotsPerCPU*core.Parallelism() {
		wantSlots <<= 1
	}
	for n := 1; n <= 128; n *= 2 {
		t.Run(fmt.Sprintf("stripes=%d", n), func(t *testing.T) {
			m := MustNew(Config{Stripes: n})
			base := uintptr(unsafe.Pointer(&m.stripes[0]))
			if i := sharedLine(base, unsafe.Sizeof(stripe{}), stripeEnd, n); i >= 0 {
				t.Errorf("stripes %d and %d share a line (array at %d mod %d, fields end at %d of %d)",
					i, i+1, base%pad.CacheLineSize, pad.CacheLineSize, stripeEnd, unsafe.Sizeof(stripe{}))
			}
			for i := range m.stripes {
				ctr := m.stripes[i].ctr
				if len(ctr) != wantSlots {
					t.Fatalf("stripe %d has %d counter slots, want %d", i, len(ctr), wantSlots)
				}
				base := uintptr(unsafe.Pointer(&ctr[0]))
				if j := sharedLine(base, unsafe.Sizeof(counterSlot{}), slotEnd, len(ctr)); j >= 0 {
					t.Fatalf("stripe %d: counter slots %d and %d share a line", i, j, j+1)
				}
			}
		})
	}
}
