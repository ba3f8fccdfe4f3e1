// Package obs is the market daemon's telemetry subsystem: a
// dependency-free metrics registry with a Prometheus text-exposition
// writer, and a lightweight in-process span recorder for bid-lifecycle
// tracing. It is stdlib-only by design — the exposition format is plain
// text and the trace store is a ring buffer, so no client library is
// needed.
//
// The two halves are bundled into a Telemetry value that the serving
// layers (httpapi, market, journal) share:
//
//   - Registry holds typed Counter / Gauge / Histogram instruments with
//     atomic hot paths and label-set interning, plus collector families
//     whose samples are computed at scrape time. WritePrometheus owns
//     family ordering and label escaping, so every family's HELP/TYPE
//     header is emitted exactly once and its samples stay contiguous.
//   - Tracer mints request IDs, records sampled per-request traces
//     (named spans with durations) into a fixed-size ring, and serves
//     them to the /debug/traces operator endpoint.
//
// Instrument update paths are safe for concurrent use and never block a
// scrape: counters and gauges are single atomics, histograms are one
// atomic per bucket.
package obs

import (
	"context"
	"sync"
	"time"
)

// Telemetry bundles the metrics registry and the trace recorder that
// one daemon shares across its layers.
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer

	// The per-stage latency family is registered lazily so Telemetry
	// literals (every daemon builds one) keep working: the first layer
	// that binds a stage registers the family, later layers reuse it.
	stageOnce sync.Once
	stages    *Vec[*Histogram]
}

// NewTelemetry builds a Telemetry with default trace capacity and
// sampling (record every request, keep the last 256 traces).
func NewTelemetry() *Telemetry {
	return &Telemetry{
		Registry: NewRegistry(),
		Tracer:   NewTracer(256, 1, 0),
	}
}

// StageVec returns the shared shield_stage_seconds{stage} histogram
// family decomposing the request pipeline (the stage catalog is
// documented in DESIGN.md §Observability), registering it on first
// use. Every instrumented layer binds its stages through this one
// family so shieldtop and SLO clauses address stages uniformly.
func (t *Telemetry) StageVec() *Vec[*Histogram] {
	t.stageOnce.Do(func() {
		t.stages = t.Registry.HistogramVec("shield_stage_seconds",
			"Per-stage latency of the request pipeline (stage catalog in DESIGN.md).",
			LatencyBuckets(), "stage")
	})
	return t.stages
}

// Stage pre-binds one stage series of StageVec — call at instrument
// time, keep the pointer on the hot path.
func (t *Telemetry) Stage(name string) *Histogram {
	return t.StageVec().With(name)
}

// StageEnd closes a stage opened by StageTimer (or a bare span opened
// by StartSpan). It is a plain value — no closure, no heap allocation —
// because stages open several times per request on the hot path. The
// zero value is a no-op.
type StageEnd struct {
	tr    *Trace
	h     *Histogram
	name  string
	start time.Time
}

// End closes the stage: it records the span on the trace (when the
// request is sampled) and observes the elapsed seconds on the
// histogram (when one was bound), stamped with the request ID as the
// owning bucket's exemplar.
func (e StageEnd) End() {
	if e.tr == nil && e.h == nil {
		return
	}
	d := time.Since(e.start)
	e.tr.AddSpan(e.name, e.start, d)
	if e.h != nil {
		e.h.ObserveTrace(d.Seconds(), e.tr.Exemplar())
	}
}

// StageTimer times one pipeline stage against both telemetry halves:
// it opens a span named name on the context's trace (no-op when the
// request is unsampled) and, when h is non-nil, observes the elapsed
// seconds on h at close — stamped with the request ID as the owning
// bucket's exemplar when the request is sampled. The returned StageEnd
// closes the stage. With h nil and no trace on ctx it is free.
func StageTimer(ctx context.Context, h *Histogram, name string) StageEnd {
	tr := TraceFrom(ctx)
	if h == nil && tr == nil {
		return StageEnd{}
	}
	return StageEnd{tr: tr, h: h, name: name, start: time.Now()}
}
