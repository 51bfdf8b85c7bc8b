package skiplist

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The benchmarks share one list of benchKeys keys (none of them changes
// the key set) and one skewed stream of resident keys. They touch only
// the exported API, so the same file measures any commit's List; each
// reports B/key, the live-heap cost of the loaded list per key.
const (
	benchKeys   = 1 << 20
	benchStream = 1 << 16
)

var (
	benchList      *List
	benchStreamKey []uint64
	benchBytes     float64
	benchSink      uint64
)

func benchKey(rank uint64) uint64 { return rank * 0x9e3779b97f4a7c15 }

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func benchFixture(b *testing.B) *List {
	if benchList == nil {
		before := liveHeap()
		l := New(1)
		for rank := uint64(0); rank < benchKeys; rank++ {
			l.Put(benchKey(rank), rank)
		}
		benchBytes = float64(liveHeap()-before) / benchKeys
		// Ranks drawn as benchKeys·u³: half the stream falls on the
		// lowest eighth of the ranks.
		rng := xrand.New(2)
		benchStreamKey = make([]uint64, benchStream)
		for i := range benchStreamKey {
			u := float64(rng.Next()>>11) / (1 << 53)
			benchStreamKey[i] = benchKey(uint64(u * u * u * benchKeys))
		}
		benchList = l
	}
	b.ResetTimer()
	b.ReportMetric(benchBytes, "B/key") // after the reset, which drops reported metrics
	return benchList
}

func BenchmarkListGet(b *testing.B) {
	l := benchFixture(b)
	for i := 0; i < b.N; i++ {
		v, _ := l.Get(benchStreamKey[i%benchStream])
		benchSink += v
	}
}

// BenchmarkListPut overwrites resident keys.
func BenchmarkListPut(b *testing.B) {
	l := benchFixture(b)
	for i := 0; i < b.N; i++ {
		l.Put(benchStreamKey[i%benchStream], uint64(i))
	}
}

// BenchmarkListDelete times a Delete and the fresh Put that restores the
// key: the churn pair, one node freed and one allocated.
func BenchmarkListDelete(b *testing.B) {
	l := benchFixture(b)
	for i := 0; i < b.N; i++ {
		k := benchStreamKey[i%benchStream]
		l.Delete(k)
		l.Put(k, uint64(i))
	}
}

func BenchmarkListScan64(b *testing.B) {
	l := benchFixture(b)
	for i := 0; i < b.N; i++ {
		n := 0
		l.Scan(benchStreamKey[i%benchStream], ^uint64(0), func(_, v uint64) bool {
			benchSink += v
			n++
			return n < 64
		})
	}
}

// BenchmarkListGCMark forces collections with the list resident and
// reports the wall time of one: what the collector pays to keep the list.
func BenchmarkListGCMark(b *testing.B) {
	l := benchFixture(b)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.ReportMetric(time.Since(start).Seconds()*1e3/float64(b.N), "ms/cycle")
	runtime.KeepAlive(l)
}
