package obs

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Requests is a serving front end's request lifecycle, the one rule the
// HTTP and wire servers both apply. A request that propagates an ID runs
// under it, continuing the caller's trace when the caller sampled it; any
// other runs under a minted ID that the local sampler may trace. Its
// latency is observed per (name, status) on a series bound on first use,
// with the trace ID as the exemplar.
type Requests struct {
	tracer       *Tracer
	kind, prefix string           // see NewRequests
	status       func(int) string // spells a status label
	vec          *Vec[*Histogram]
	mu           sync.Mutex // serializes binding
	// bound is replaced, never written, so a lookup takes no lock.
	bound atomic.Pointer[map[reqKey]reqSeries]
}

type reqKey struct {
	name   string
	status int
}

type reqSeries struct {
	h     *Histogram
	trace string // the name a request's trace takes
}

// NewRequests registers the latency family (labels label and "status")
// on t and returns the lifecycle that observes it. Traces begin named
// kind; End renames them prefix + the request's name.
func NewRequests(t *Telemetry, family, help, label, kind, prefix string, status func(int) string) *Requests {
	q := &Requests{tracer: t.Tracer, kind: kind, prefix: prefix, status: status,
		vec: t.Registry.HistogramVec(family, help, LatencyBuckets(), label, "status")}
	q.bound.Store(&map[reqKey]reqSeries{})
	return q
}

// Begin binds c to a request that began at start and returns its trace,
// nil when unsampled. id is the caller's propagated ID ("" for none), and
// sampled the caller's sampling decision for it.
func (q *Requests) Begin(c *RequestCtx, id string, sampled bool, start time.Time) *Trace {
	if id == "" {
		return c.mint(q.tracer, q.kind, start)
	}
	var tr *Trace
	if sampled {
		tr = q.tracer.adopt(id, q.kind, start)
	}
	c.Reset(id, tr)
	return tr
}

// End names c's request and observes its latency since start on the
// (name, status) series, returning it.
func (q *Requests) End(c *RequestCtx, name string, status int, start time.Time) time.Duration {
	k := reqKey{name, status}
	s, ok := (*q.bound.Load())[k]
	if !ok {
		s = q.bind(k)
	}
	c.tr.SetName(s.trace)
	d := time.Since(start)
	s.h.ObserveTrace(d.Seconds(), c.tr.Exemplar())
	return d
}

func (q *Requests) bind(k reqKey) reqSeries {
	q.mu.Lock()
	defer q.mu.Unlock()
	next := maps.Clone(*q.bound.Load())
	s, ok := next[k]
	if !ok {
		s = reqSeries{q.vec.With(k.name, q.status(k.status)), q.prefix + k.name}
		next[k] = s
		q.bound.Store(&next)
	}
	return s
}
