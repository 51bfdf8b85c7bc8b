package skiplist

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The benchmarks run at width 1, the simulator's memtable, width 64, the
// store's backend, and width 32, the next narrower choice. At each width
// they share one list of benchKeys keys (none of them changes the key
// set), and all share one skewed stream of resident keys. They touch only the exported API, so the same
// file measures any commit's List that takes a width; each reports B/key,
// the live-heap cost of the loaded list per key.
const (
	benchKeys   = 1 << 20
	benchStream = 1 << 16
)

var (
	benchLists     = map[int]*List{}
	benchBytes     = map[int]float64{}
	benchStreamKey []uint64
	benchSink      uint64
)

func benchKey(rank uint64) uint64 { return rank * 0x9e3779b97f4a7c15 }

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchWidths runs bench as a width=1, a width=32 and a width=64
// sub-benchmark, each over its width's loaded list.
func benchWidths(b *testing.B, bench func(b *testing.B, l *List)) {
	for _, width := range []int{1, 32, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			bench(b, benchFixture(b, width))
		})
	}
}

func benchFixture(b *testing.B, width int) *List {
	if benchStreamKey == nil {
		// Ranks drawn as benchKeys·u³: half the stream falls on the
		// lowest eighth of the ranks.
		rng := xrand.New(2)
		benchStreamKey = make([]uint64, benchStream)
		for i := range benchStreamKey {
			u := float64(rng.Next()>>11) / (1 << 53)
			benchStreamKey[i] = benchKey(uint64(u * u * u * benchKeys))
		}
	}
	if benchLists[width] == nil {
		before := liveHeap()
		l := New(1, width)
		for rank := uint64(0); rank < benchKeys; rank++ {
			l.Put(benchKey(rank), rank)
		}
		benchBytes[width] = float64(liveHeap()-before) / benchKeys
		benchLists[width] = l
	}
	b.ResetTimer()
	b.ReportMetric(benchBytes[width], "B/key") // after the reset, which drops reported metrics
	return benchLists[width]
}

func BenchmarkListGet(b *testing.B) {
	benchWidths(b, func(b *testing.B, l *List) {
		for i := 0; i < b.N; i++ {
			v, _ := l.Get(benchStreamKey[i%benchStream])
			benchSink += v
		}
	})
}

// BenchmarkListPut overwrites resident keys.
func BenchmarkListPut(b *testing.B) {
	benchWidths(b, func(b *testing.B, l *List) {
		for i := 0; i < b.N; i++ {
			l.Put(benchStreamKey[i%benchStream], uint64(i))
		}
	})
}

// BenchmarkListDelete times a Delete and the fresh Put that restores the
// key: the churn pair (at width 1, one node freed and one allocated).
func BenchmarkListDelete(b *testing.B) {
	benchWidths(b, func(b *testing.B, l *List) {
		for i := 0; i < b.N; i++ {
			k := benchStreamKey[i%benchStream]
			l.Delete(k)
			l.Put(k, uint64(i))
		}
	})
}

func BenchmarkListScan64(b *testing.B) {
	benchWidths(b, func(b *testing.B, l *List) {
		for i := 0; i < b.N; i++ {
			n := 0
			l.Scan(benchStreamKey[i%benchStream], ^uint64(0), func(_, v uint64) bool {
				benchSink += v
				n++
				return n < 64
			})
		}
	})
}

// BenchmarkListGCMark forces collections with the list resident and
// reports the wall time of one: what the collector pays to keep the list.
func BenchmarkListGCMark(b *testing.B) {
	benchWidths(b, func(b *testing.B, l *List) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runtime.GC()
		}
		b.ReportMetric(time.Since(start).Seconds()*1e3/float64(b.N), "ms/cycle")
		runtime.KeepAlive(l)
	})
}
