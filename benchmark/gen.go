//go:build linux

package main

import (
	"math"
	"math/rand"
)

// The generators below turn -seed into every input the system under
// test sees. Streams are built before the clock starts, so generator
// cost (a zipf draw is dearer than a hashmap Get) never lands in a
// measured span, and the same seed replays the same requests.

// Operation kinds.
const (
	opGet uint8 = iota
	opPut
	opDel
	opScan
)

// Operation flags.
const (
	// flagCtx routes an in-process op through the *Context form; over
	// the wire it marks a frame that carries a deadline budget.
	flagCtx uint8 = 1 << iota
	// flagPrivate marks an op on the issuing worker's private key
	// range, where read-your-writes can be checked exactly.
	flagPrivate
)

// op is one pre-generated request.
type op struct {
	key      uint64
	budgetUS uint32 // wire deadline budget in microseconds (flagCtx)
	kind     uint8
	flags    uint8
	class    uint8
}

// mix is an operation mix as shares that sum to 1.
type mix struct{ get, put, del, scan float64 }

// streamSpec describes one worker's request stream.
type streamSpec struct {
	n        int     // requests in the stream (workers cycle through it)
	keys     uint64  // shared key space size, a power of two
	zipfS    float64 // skew of the shared-key popularity
	mix      mix
	ctxFrac  float64 // share of ops with flagCtx
	budgetLo uint32  // deadline budget range in microseconds, inclusive
	budgetHi uint32
	classes  uint8   // 0: unclassified, else classes 1..classes round-robin
	privFrac float64 // share of ops redirected to the worker's private keys
	privN    int     // private keys per worker
}

// valBits is how many low bits of a value carry its key. Keys (shared
// and private) stay below 1<<valBits, so a value read back under the
// wrong key — a torn read, a misrouted frame — never decodes to it.
const valBits = 24

func encodeVal(key, version uint64) uint64 { return version<<valBits | key }
func valKey(val uint64) uint64             { return val & (1<<valBits - 1) }

// rankKey maps a popularity rank to a key: a bijection on [0, keys) by
// an odd multiplier, so the hot ranks are spread over the key space
// (adjacent hot keys would share skiplist towers and scan ranges) while
// the space stays dense for range scans.
func rankKey(rank, keys uint64) uint64 {
	return (rank*0x9E3779B1 + 0x7F4A7C15) & (keys - 1)
}

// preload puts the keys of the first n popularity ranks, each with its
// first-version value.
func preload(n, keys uint64, put func(key, val uint64)) {
	for rank := uint64(0); rank < n; rank++ {
		k := rankKey(rank, keys)
		put(k, encodeVal(k, 1))
	}
}

// privBase is the first private key of worker w: private ranges sit
// above the shared space and never overlap.
func privBase(keys uint64, w, privN int) uint64 {
	return keys + uint64(w*privN)
}

// streamSeed derives an independent generator seed per (seed, stream)
// by a SplitMix64 step, so neighbouring seeds share no prefix.
func streamSeed(seed uint64, stream int) int64 {
	z := seed + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// genStream builds worker w's request stream.
func genStream(seed uint64, w int, s streamSpec) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, w)))
	zipf := rand.NewZipf(rng, s.zipfS, 1, s.keys-1)
	ops := make([]op, s.n)
	base := privBase(s.keys, w, s.privN)
	for i := range ops {
		o := &ops[i]
		switch u := rng.Float64(); {
		case u < s.mix.get:
			o.kind = opGet
		case u < s.mix.get+s.mix.put:
			o.kind = opPut
		case u < s.mix.get+s.mix.put+s.mix.del:
			o.kind = opDel
		default:
			o.kind = opScan
		}
		o.key = rankKey(zipf.Uint64(), s.keys)
		if o.kind != opScan && s.privN > 0 && rng.Float64() < s.privFrac {
			o.flags |= flagPrivate
			o.key = base + uint64(rng.Intn(s.privN))
		}
		if rng.Float64() < s.ctxFrac {
			o.flags |= flagCtx
			o.budgetUS = s.budgetLo
			if s.budgetHi > s.budgetLo {
				o.budgetUS += uint32(rng.Int63n(int64(s.budgetHi-s.budgetLo) + 1))
			}
		}
		if s.classes > 0 {
			o.class = 1 + uint8(i)%s.classes
		}
	}
	return ops
}

// poissonSchedule returns the due times, in nanoseconds from the start
// of the run, of a Poisson arrival process of the given rate over span
// nanoseconds.
func poissonSchedule(seed uint64, rate float64, span int64) []int64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, -2)))
	due := make([]int64, 0, int(rate*float64(span)/1e9*1.1)+16)
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate * 1e9
		if int64(t) >= span {
			return due
		}
		due = append(due, int64(t))
	}
}
