package netserve

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines records the goroutine count now and, when the test
// ends — after its defers and every cleanup registered later — polls
// until the count is back at or below that baseline, failing with a dump
// of every goroutine's stack if it is not within the deadline. Call it
// first in a test that starts servers, clients or workers: a Close,
// Abort or drain path that strands a reader, writer or worker goroutine
// shows up here rather than as a slow leak in production.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("goroutine leak: %d running, %d at test start\n%s", n, base, buf)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
