package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/xrand"
)

func TestBasic(t *testing.T) {
	m := New(8)
	if m.Len() != 0 {
		t.Fatalf("empty Len=%d", m.Len())
	}
	if !m.Put(1, 100) || !m.Put(2, 200) || !m.Put(0, 7) {
		t.Fatal("fresh Put reported existing key")
	}
	if m.Put(1, 101) {
		t.Fatal("update reported new key")
	}
	if v, ok := m.Get(1); !ok || v != 101 {
		t.Fatalf("Get(1)=%d,%v want 101,true", v, ok)
	}
	if v, ok := m.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0)=%d,%v want 7,true", v, ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("Get(3) found a missing key")
	}
	if !m.Delete(2) || m.Delete(2) {
		t.Fatal("Delete(2) wrong presence report")
	}
	if m.Len() != 2 {
		t.Fatalf("Len=%d want 2", m.Len())
	}
}

func TestPutGetDelete(t *testing.T) {
	m := New(100)
	for i := uint64(0); i < 100; i++ { // includes key 0 (held out-of-band)
		if !m.Put(i, i*2) {
			t.Fatalf("Put(%d) claimed update on fresh key", i)
		}
	}
	if m.Len() != 100 {
		t.Fatalf("Len=%d", m.Len())
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := m.Get(i)
		if !ok || v != i*2 {
			t.Fatalf("Get(%d)=(%d,%v)", i, v, ok)
		}
	}
	for i := uint64(0); i < 100; i += 2 {
		if !m.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if m.Len() != 50 {
		t.Fatalf("Len=%d", m.Len())
	}
	for i := uint64(0); i < 100; i++ {
		_, ok := m.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d)=%v want %v", i, ok, want)
		}
	}
}

func TestGrowth(t *testing.T) {
	m := New(4)
	slots := m.Slots()
	for i := uint64(1); i <= 1000; i++ {
		m.Put(i, i)
	}
	if m.Slots() <= slots {
		t.Fatal("table did not grow")
	}
	for i := uint64(1); i <= 1000; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("lost key %d after growth", i)
		}
	}
}

func TestBackshiftAgainstModel(t *testing.T) {
	// Backward-shift deletion is the subtle part; drive it hard against a
	// Go map model with a small table to force probe chains.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		m := New(8)
		model := map[uint64]uint64{}
		for op := 0; op < 600; op++ {
			k := uint64(rng.Intn(40))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Next()
				gotNew := m.Put(k, v)
				_, had := model[k]
				if gotNew == had {
					return false
				}
				model[k] = v
			case 2:
				got := m.Delete(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
			if m.Len() != len(model) {
				return false
			}
		}
		for k, v := range model {
			got, ok := m.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAgainstMapModel(t *testing.T) {
	// Randomized differential test against Go's map, including growth and
	// backward-shift deletion under clustered keys.
	m := New(0)
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(512)) // dense keyspace to force probe clusters
		switch rng.Intn(3) {
		case 0, 1:
			val := rng.Uint64()
			wantNew := func() bool { _, ok := ref[key]; return !ok }()
			if got := m.Put(key, val); got != wantNew {
				t.Fatalf("Put(%d) new=%v want %v", key, got, wantNew)
			}
			ref[key] = val
		case 2:
			_, want := ref[key]
			if got := m.Delete(key); got != want {
				t.Fatalf("Delete(%d)=%v want %v", key, got, want)
			}
			delete(ref, key)
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len=%d want %d", m.Len(), len(ref))
		}
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d)=%d,%v want %d,true", k, got, ok, v)
		}
	}
}

func TestZeroAndMaxKeysDistinct(t *testing.T) {
	// Regression (was TestPlainZeroAndMaxKeysDistinct): the simulator-side
	// table this type replaced remapped key 0 onto MaxUint64, so the two
	// collided; key 0 is held out-of-band and the full uint64 domain works.
	m := New(4)
	if !m.Put(0, 1) || !m.Put(^uint64(0), 2) {
		t.Fatal("fresh Put reported existing key")
	}
	if m.Len() != 2 {
		t.Fatalf("Len=%d want 2", m.Len())
	}
	if v, ok := m.Get(0); !ok || v != 1 {
		t.Fatalf("Get(0)=%d,%v want 1,true", v, ok)
	}
	if v, ok := m.Get(^uint64(0)); !ok || v != 2 {
		t.Fatalf("Get(MaxUint64)=%d,%v want 2,true", v, ok)
	}
	seen := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool { seen[k] = v; return true })
	if len(seen) != 2 || seen[0] != 1 || seen[^uint64(0)] != 2 {
		t.Fatalf("Range saw %v", seen)
	}
	if !m.Delete(0) {
		t.Fatal("Delete(0) missed")
	}
	if v, ok := m.Get(^uint64(0)); !ok || v != 2 {
		t.Fatalf("Delete(0) disturbed MaxUint64: %d,%v", v, ok)
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("Get(0) found a deleted key")
	}
}

func TestRange(t *testing.T) {
	m := New(4)
	want := map[uint64]uint64{0: 5, 1: 10, 7: 70, 1 << 40: 99}
	for k, v := range want {
		m.Put(k, v)
	}
	got := make(map[uint64]uint64)
	m.Range(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d pairs want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range saw %d=%d want %d", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	m.Range(func(_, _ uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range after false visited %d pairs", n)
	}
}

func TestGetOptimisticQuiescent(t *testing.T) {
	// With no concurrent mutator the weak read is exact: same answers as
	// Get across growth, deletion clusters, and the out-of-band zero key.
	m := New(0)
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(512))
		if rng.Intn(8) == 0 {
			key = 0
		}
		if rng.Intn(3) == 2 {
			m.Delete(key)
			delete(ref, key)
		} else {
			val := rng.Uint64()
			m.Put(key, val)
			ref[key] = val
		}
		probe := uint64(rng.Intn(512))
		wantV, want := ref[probe]
		if v, ok := m.GetOptimistic(probe); ok != want || (ok && v != wantV) {
			t.Fatalf("op %d: GetOptimistic(%d)=%d,%v want %d,%v", i, probe, v, ok, wantV, want)
		}
	}
}

func TestGetOptimisticConcurrent(t *testing.T) {
	// Put-only concurrency under the race detector: with no deletes, a
	// slot's key never changes once published (value is stored before
	// the key, and later Puts of the same key only rewrite the value;
	// grows freeze the old generation), so even the lock-free read
	// keeps per-slot pair integrity — any value returned for key k is
	// one k actually held (k or k+1 here).
	m := New(0)
	const keys = 512
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				if v, ok := m.GetOptimistic(k); ok && v != k && v != k+1 {
					panic("GetOptimistic returned a value the key never held")
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200000; i++ {
		k := uint64(rng.Intn(keys))
		if rng.Intn(3) == 0 {
			m.Put(k, k)
		} else {
			m.Put(k, k+1)
		}
	}
	close(stop)
	wg.Wait()
}

func TestGetOptimisticChurn(t *testing.T) {
	// Full churn — puts, deletes, grows, backshifts — under the race
	// detector. Here the contract is only the weak one: a delete's
	// backshift moves entries between slots value-then-key, so a racing
	// reader can transiently pair a key with a neighboring entry's
	// value ("mixed versions", which the seqlock stamp above discards).
	// The assertions are the safety floor: no race report, no fault,
	// bounded probes, and any value returned is from the written domain.
	m := New(0)
	const keys = 512
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				if v, ok := m.GetOptimistic(k); ok && v > keys {
					panic("GetOptimistic returned a value nothing ever held")
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200000; i++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(4) {
		case 0:
			m.Delete(k)
		case 1:
			m.Put(k, k)
		default:
			m.Put(k, k+1)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHookedMatchesUnhooked(t *testing.T) {
	// The same op sequence through a bare table and one with the
	// footprint hook installed: identical results, and the hook sees
	// exactly the linear probe run each locked-path operation reads —
	// contiguous from the key's home slot (a delete's backshift keeps
	// walking the same run) — while GetOptimistic never calls it.
	bare, hooked := New(8), New(8)
	var offs []uint64
	hooked.Touch = func(off uint64) { offs = append(offs, off) }
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(512))
		offs = offs[:0]
		switch rng.Intn(4) {
		case 0, 1:
			val := rng.Uint64()
			if a, b := bare.Put(key, val), hooked.Put(key, val); a != b {
				t.Fatalf("op %d: Put(%d) fresh %v bare, %v hooked", i, key, a, b)
			}
		case 2:
			if a, b := bare.Delete(key), hooked.Delete(key); a != b {
				t.Fatalf("op %d: Delete(%d) %v bare, %v hooked", i, key, a, b)
			}
		case 3:
			av, aok := bare.Get(key)
			bv, bok := hooked.Get(key)
			if av != bv || aok != bok {
				t.Fatalf("op %d: Get(%d)=%d,%v bare, %d,%v hooked", i, key, av, aok, bv, bok)
			}
		}
		if (len(offs) == 0) != (key == 0) {
			t.Fatalf("op %d on key %d reported %d probes", i, key, len(offs))
		}
		mask := uint64(hooked.Slots() - 1)
		for j, off := range offs {
			if want := ((Mix(key) + uint64(j)) & mask) * slotBytes; off != want {
				t.Fatalf("op %d on key %d: probe %d at offset %#x, want %#x", i, key, j, off, want)
			}
		}
		if bare.Len() != hooked.Len() {
			t.Fatalf("op %d: Len %d bare, %d hooked", i, bare.Len(), hooked.Len())
		}
		offs = offs[:0]
		wantV, want := bare.Get(key)
		if v, ok := hooked.GetOptimistic(key); v != wantV || ok != want {
			t.Fatalf("op %d: GetOptimistic(%d)=%d,%v want %d,%v", i, key, v, ok, wantV, want)
		}
		if len(offs) != 0 {
			t.Fatalf("op %d: GetOptimistic called the hook %d times", i, len(offs))
		}
	}
	pairs := map[uint64]uint64{}
	bare.Range(func(k, v uint64) bool { pairs[k] = v; return true })
	n := 0
	offs = offs[:0]
	hooked.Range(func(k, v uint64) bool {
		if pv, ok := pairs[k]; !ok || pv != v {
			t.Fatalf("Range: hooked yields %d=%d, bare has %d,%v", k, v, pv, ok)
		}
		n++
		return true
	})
	if n != len(pairs) {
		t.Fatalf("Range: hooked yields %d pairs, bare %d", n, len(pairs))
	}
	if len(offs) != hooked.Slots() {
		t.Fatalf("Range reported %d slots of %d", len(offs), hooked.Slots())
	}
}

// TestSlotLayout pins the real slot to the footprint the Touch hook
// reports: one 16 B slot with the key in its first word and the value
// in its second, so the simulator's cache model charges exactly the
// line a probe of the real table reads.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != slotBytes {
		t.Fatalf("unsafe.Sizeof(slot{}) = %d, want slotBytes = %d", got, slotBytes)
	}
	s := slot{key: 1, val: 2}
	words := (*[2]uint64)(unsafe.Pointer(&s))
	if words[0] != 1 || words[1] != 2 {
		t.Fatalf("slot{key: 1, val: 2} is laid out as %v, want [1 2] (key at offset 0)", *words)
	}
}
