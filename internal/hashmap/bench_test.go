package hashmap

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// The benchmarks run at 2^16 keys, a table that fits in a per-core L2,
// and at 2^20, a 32 MB table far past it, so a probe misses the core's
// caches and the number of lines it reads is what is timed. Each size shares one loaded table and one uniform stream of as
// many resident keys as the table holds, so the stream walks the whole
// table; none of the benchmarks changes the key set. They touch only
// the exported API, so the same file measures any commit's Map.
var (
	benchMaps = map[int]*Map{}
	benchKeys = map[int][]uint64{}
	benchSink uint64
)

func benchKey(rank uint64) uint64 { return rank*0x9e3779b97f4a7c15 + 1 }

// benchSizes runs bench as a keys=2^16 and a keys=2^20 sub-benchmark,
// each over its size's loaded table and key stream.
func benchSizes(b *testing.B, bench func(b *testing.B, m *Map, keys []uint64)) {
	for _, shift := range []int{16, 20} {
		n := 1 << shift
		b.Run(fmt.Sprintf("keys=2^%d", shift), func(b *testing.B) {
			if benchMaps[n] == nil {
				m := New(n)
				for rank := uint64(0); rank < uint64(n); rank++ {
					m.Put(benchKey(rank), rank)
				}
				rng := xrand.New(uint64(shift))
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = benchKey(rng.Uint64n(uint64(n)))
				}
				benchMaps[n], benchKeys[n] = m, keys
			}
			b.ResetTimer()
			bench(b, benchMaps[n], benchKeys[n])
		})
	}
}

func BenchmarkGet(b *testing.B) {
	benchSizes(b, func(b *testing.B, m *Map, keys []uint64) {
		for i := 0; i < b.N; i++ {
			v, _ := m.Get(keys[i&(len(keys)-1)])
			benchSink += v
		}
	})
}

func BenchmarkGetOptimistic(b *testing.B) {
	benchSizes(b, func(b *testing.B, m *Map, keys []uint64) {
		for i := 0; i < b.N; i++ {
			v, _ := m.GetOptimistic(keys[i&(len(keys)-1)])
			benchSink += v
		}
	})
}

// BenchmarkPut overwrites resident keys.
func BenchmarkPut(b *testing.B) {
	benchSizes(b, func(b *testing.B, m *Map, keys []uint64) {
		for i := 0; i < b.N; i++ {
			m.Put(keys[i&(len(keys)-1)], uint64(i))
		}
	})
}
