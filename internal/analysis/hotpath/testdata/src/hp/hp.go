// Package hp is the hotpath fixture: annotated twins of the repo's
// Unlock paths and control loops with the budget violations the
// analyzer denies, plus clean shapes that must stay silent.
package hp

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/metrics"
	"repro/shard"
)

var word atomic.Uint64

// unlock is the healthy critical-section shape: atomics, arithmetic,
// calls into un-denied code.
//
//lockcheck:cs
func unlock() {
	word.Add(1)
	helper()
}

func helper() { word.Store(0) }

// badUnlock commits every sin at once.
//
//lockcheck:cs
func badUnlock(ch chan int, d time.Duration) {
	t := time.Now()          // want `time\.Now in critical-section function badUnlock`
	time.Sleep(d)            // want `time\.Sleep in critical-section function badUnlock`
	fmt.Println(t)           // want `fmt\.Println in critical-section function badUnlock`
	os.Getenv("HOME")        // want `os\.Getenv in critical-section function badUnlock`
	println("held")          // want `println builtin in critical-section function badUnlock`
	ch <- 1                  // want `channel send in critical-section function badUnlock`
	<-ch                     // want `channel receive in critical-section function badUnlock`
	_ = make(chan int)       // want `channel allocation in critical-section function badUnlock`
	go helper()              // want `goroutine launch in critical-section function badUnlock`
	defer func() { _ = t }() // want `deferred closure in critical-section function badUnlock`
	select {                 // want `select in critical-section function badUnlock`
	default:
	}
}

// nested violations inside a function literal still run in the critical
// section's dynamic extent.
//
//lockcheck:cs
func nestedCS() {
	f := func() {
		time.Now() // want `time\.Now in critical-section function nestedCS`
	}
	f()
}

// durations are arithmetic, not clock reads; make of a non-channel and
// a deferred named function (no closure allocation) are fine.
//
//lockcheck:cs
func cleanCS(d time.Duration) int {
	defer helper()
	buf := make([]byte, 0, int(d.Nanoseconds()))
	return len(buf)
}

// unannotated functions may do anything.
func notCS() {
	time.Now()
	fmt.Println("fine")
}

// sampler is the healthy control-loop shape: no patient calls.
//
//lockcheck:nosnapshot
func sampler(m *shard.Map) (uint64, bool) {
	return m.Get(42)
}

// badSampler calls the patient family.
//
//lockcheck:nosnapshot
func badSampler(m *shard.Map, h metrics.History) {
	m.Snapshot()                                              // want `\(\*shard\.Map\)\.Snapshot in //lockcheck:nosnapshot function badSampler`
	_ = m.Scan(0, 10, func(k, v uint64) bool { return true }) // want `\(\*shard\.Map\)\.Scan in //lockcheck:nosnapshot function badSampler`
	metrics.Summarize(h, 8)                                   // want `metrics\.Summarize in //lockcheck:nosnapshot function badSampler`
}

// snapshots are fine outside the annotation.
func patient(m *shard.Map) shard.Snapshot {
	return m.Snapshot()
}

var sharedWord uint64
var sharedSlice = make([]uint64, 8)
var sharedMap = map[uint64]uint64{}

type box struct{ v uint64 }

var sharedBox box

// goodOptimistic is the healthy validated-read shape: loads from
// anywhere, atomics for shared effects, plain stores only to frame
// state (locals, fields of local struct values, local array elements).
//
//lockcheck:optimistic
func goodOptimistic(p *box) uint64 {
	var local uint64
	local = sharedWord // loads are the whole point
	local++
	var b box
	b.v = local // field of a local value: frame-private
	var arr [2]uint64
	arr[0] = b.v // local array element: frame-private
	word.Add(1)  // shared effects go through sync/atomic
	_ = p.v
	_, _ = time.Now(), arr
	return b.v
}

// badOptimistic takes a lock, blocks, and stores to shared state.
//
//lockcheck:optimistic
func badOptimistic(mu *sync.Mutex, rw *sync.RWMutex, ch chan int, p *box, d time.Duration) {
	mu.Lock()     // want `Lock call in optimistic read section badOptimistic`
	mu.TryLock()  // want `TryLock call in optimistic read section badOptimistic`
	rw.RLock()    // want `RLock call in optimistic read section badOptimistic`
	time.Sleep(d) // want `time\.Sleep in optimistic read section badOptimistic`
	ch <- 1       // want `channel send in optimistic read section badOptimistic`
	<-ch          // want `channel receive in optimistic read section badOptimistic`
	go helper()   // want `goroutine launch in optimistic read section badOptimistic`
	select {      // want `select in optimistic read section badOptimistic`
	default:
	}
	sharedWord = 1     // want `plain store to shared state \(sharedWord\) in optimistic read section badOptimistic`
	sharedWord++       // want `plain store to shared state \(sharedWord\) in optimistic read section badOptimistic`
	sharedBox.v = 2    // want `plain store to shared state \(sharedBox\) in optimistic read section badOptimistic`
	p.v = 3            // want `plain store through a pointer in optimistic read section badOptimistic`
	sharedSlice[0] = 4 // want `plain store through a slice or map in optimistic read section badOptimistic`
	sharedMap[1] = 5   // want `plain store through a slice or map in optimistic read section badOptimistic`
	*(&sharedWord) = 6 // want `plain store through a pointer in optimistic read section badOptimistic`
}

// nested literals inherit the optimistic budget.
//
//lockcheck:optimistic
func nestedOptimistic() {
	f := func() {
		sharedWord = 7 // want `plain store to shared state \(sharedWord\) in optimistic read section nestedOptimistic`
	}
	f()
}

// the bounded scan is in the patient family too: it still locks every
// stripe.
//
//lockcheck:nosnapshot
func badBoundedSampler(m *shard.Map) {
	m.ScanFirst(nil, 0, 10, 4, func(k, v uint64) bool { return true }) // want `\(\*shard\.Map\)\.ScanFirst in //lockcheck:nosnapshot function badBoundedSampler`
}
