//go:build race

package server

// raceEnabled skips allocation counts: under the race detector sync.Pool
// drops items at random, so a lock's pooled waiter node may be allocated.
const raceEnabled = true
