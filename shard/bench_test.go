package shard

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// BenchmarkGetOptimisticParallel times lock-free Gets from 2×GOMAXPROCS
// goroutines on a 16-stripe hashmap map, over a zipf(1.2) stream of
// resident keys: what the optimistic read path costs when every CPU
// reads at once. same-stripe draws every key from one stripe, so all
// readers share its header and table; spread draws from the whole map.
// It uses only the exported API, so the same file measures any commit's
// Map.
func BenchmarkGetOptimisticParallel(b *testing.B) {
	const (
		keys      = 1 << 16
		streamLen = 1 << 16
	)
	m := MustNew(Config{Stripes: 16})
	var spread, same []uint64
	for rank := uint64(0); len(spread) < keys; rank++ {
		k := rank*0x9e3779b97f4a7c15 + 1
		m.Put(k, rank)
		spread = append(spread, k)
		if m.StripeFor(k) == 0 {
			same = append(same, k)
		}
	}
	for _, c := range []struct {
		name string
		keys []uint64
	}{{"same-stripe", same}, {"spread", spread}} {
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, uint64(len(c.keys)-1))
		stream := make([]uint64, streamLen)
		for i := range stream {
			stream[i] = c.keys[zipf.Uint64()]
		}
		b.Run(c.name, func(b *testing.B) {
			var next atomic.Uint64
			var sink atomic.Uint64
			b.SetParallelism(2)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := next.Add(streamLen/8) % streamLen
				var sum uint64
				for pb.Next() {
					v, _ := m.Get(stream[i])
					sum += v
					i = (i + 1) % streamLen
				}
				sink.Add(sum)
			})
		})
	}
}
