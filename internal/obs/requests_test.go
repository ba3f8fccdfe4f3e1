package obs

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestRequestsBindEachSeriesOnce: requests ending concurrently on a few
// (name, status) pairs, each pair's first use racing the others, observe
// every request exactly once on its pair's series, and name each sampled
// trace prefix + name. Run under -race it checks the lock-free lookup
// against the binding writer.
func TestRequestsBindEachSeriesOnce(t *testing.T) {
	tel := &Telemetry{Registry: NewRegistry(), Tracer: NewTracer(16, 1, 1)}
	q := NewRequests(tel, "shield_test_request_seconds", "Test latency.", "op", "test", "test.", strconv.Itoa)
	names := []string{"a", "b", "c", "d"}
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c RequestCtx
			for i := 0; i < perWorker; i++ {
				tr := q.Begin(&c, "", false, time.Now())
				name := names[i%len(names)]
				q.End(&c, name, 200+i/len(names)%2, time.Now())
				if tr.Name != "test."+name {
					t.Errorf("trace named %q, want %q", tr.Name, "test."+name)
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		for _, status := range []int{200, 201} {
			want := uint64(workers * perWorker / len(names) / 2)
			if h, ok := tel.Registry.FindHistogram("shield_test_request_seconds", name, strconv.Itoa(status)); !ok {
				t.Errorf("series %s/%d never bound", name, status)
			} else if h.Count() != want {
				t.Errorf("series %s/%d: count %d, want %d", name, status, h.Count(), want)
			}
		}
	}
}
