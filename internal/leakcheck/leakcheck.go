// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Run(m)) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// grace is how long Run waits, after the last test, for the goroutine
// count to fall back to its count before the first one: a goroutine that
// is still shutting down (a stopped sampler's ticker, a drained
// connection's reader) gets that long to exit.
const grace = 2 * time.Second

// Run runs m's tests and returns the exit code for os.Exit. If, grace
// after the run, more goroutines are alive than before it, Run prints
// every goroutine's stack to stderr and turns a passing code into a
// failing one.
func Run(m *testing.M) int {
	before := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(grace)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines alive %v after the tests, %d before them:\n\n%s\n",
				runtime.NumGoroutine(), grace, before, buf)
			if code == 0 {
				code = 1
			}
			return code
		}
		time.Sleep(10 * time.Millisecond)
	}
	return code
}
