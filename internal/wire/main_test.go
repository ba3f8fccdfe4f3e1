package wire

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine census: once the tests have
// passed, every goroutine a Server started — a connection's serving
// loop, a replication stream's peer watcher — must be gone. Tests end
// connections by closing the client end without waiting for ServeConn,
// so the census allows a short settle; what it catches is a goroutine
// that nothing will ever wake (before the one-goroutine loop, a reader
// parked on its frames channel after execution had returned).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := serverGoroutines(2 * time.Second); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine census: %d wire.(*Server) goroutine(s) outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// serverGoroutines returns the stacks of the goroutines still running
// Server code once settle has passed (at once when there are none).
func serverGoroutines(settle time.Duration) []string {
	deadline := time.Now().Add(settle)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var left []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "wire.(*Server)") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}
