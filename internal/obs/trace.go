package obs

import (
	"context"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records per-request traces into a fixed-size ring buffer. It
// mints request IDs for every request and decides (with seedable
// sampling) which requests get a full span trace; unsampled requests
// still carry their ID through logs and journal records, they just
// don't occupy ring slots.
type Tracer struct {
	seq atomic.Uint64 // request-ID counter

	mu      sync.Mutex
	ring    []*Trace // completed traces, oldest overwritten first
	next    int
	filled  bool
	every   int    // record 1 in every sampled requests; <=0 disables
	rng     uint64 // xorshift64* state for sampling jitter
	dropped uint64 // traces evicted from the ring so far

	slow atomic.Pointer[slowHook] // slow-op threshold + callback
}

// slowHook is the installed slow-op policy: any finished trace at least
// threshold long is handed to fn.
type slowHook struct {
	threshold time.Duration
	fn        func(TraceSnapshot)
}

// NewTracer builds a tracer keeping the last capacity traces and
// sampling one request in every (1 records all, 0 disables tracing).
// seed makes the sampling sequence reproducible.
func NewTracer(capacity, every int, seed uint64) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{
		ring:  make([]*Trace, capacity),
		every: every,
		rng:   seed | 1, // xorshift state must be non-zero
	}
}

// appendRequestID spells request n as "req-%08x", by hand: it runs once
// per request on the hot path. Every request gets an ID, sampled or not;
// Requests.Begin keeps a minted one a number until a reader spells it.
func appendRequestID(dst []byte, n uint64) []byte {
	const hexdigits = "0123456789abcdef"
	dst = append(dst, "req-"...)
	for shift := max(28, (bits.Len64(n)-1)/4*4); shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[n>>shift&0xf])
	}
	return dst
}

// sampled draws the seeded sampling decision.
func (t *Tracer) sampled() bool {
	if t.every <= 0 {
		return false
	}
	if t.every == 1 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// xorshift64*: deterministic for a given seed, cheap, good enough
	// for load shedding (this is sampling, not cryptography).
	t.rng ^= t.rng >> 12
	t.rng ^= t.rng << 25
	t.rng ^= t.rng >> 27
	return (t.rng*0x2545F4914F6CDD1D)%uint64(t.every) == 0
}

// Begin starts a trace for the given request ID if this request is
// sampled; it returns nil otherwise. A nil *Trace is safe to use —
// every method no-ops — so callers thread it unconditionally.
func (t *Tracer) Begin(id, name string) *Trace {
	return t.beginAt(id, name, time.Now())
}

// beginAt is Begin with an explicit start time, for a request whose wall
// time began before it was parsed (the wire server backdates a request
// by its frame's read).
func (t *Tracer) beginAt(id, name string, start time.Time) *Trace {
	if !t.sampled() {
		return nil
	}
	return newTrace(id, name, start)
}

// adopt starts a trace for a request whose sampling decision was made
// by the peer that propagated it (the wire/HTTP trace field's sampled
// bit). It bypasses the local sampler — the originator already spent
// the sampling budget, and dropping its trace here would leave the
// propagated ID dangling — but still respects a fully disabled tracer
// (every <= 0), which is the torture harness's determinism guarantee.
func (t *Tracer) adopt(id, name string, start time.Time) *Trace {
	if t.every <= 0 { // immutable after NewTracer, same as sampled()
		return nil
	}
	return newTrace(id, name, start)
}

// newTrace allocates a trace with its span slice aimed at the inline
// buffer, so the typical request (a handful of spans) costs exactly one
// allocation.
func newTrace(id, name string, start time.Time) *Trace {
	tr := &Trace{ID: id, Name: name, start: start}
	tr.spans = tr.spanBuf[:0]
	return tr
}

// OnSlow installs the slow-op hook: every trace whose total duration
// reaches threshold is handed to fn (as a snapshot, after it commits to
// the ring). fn runs on the finishing request's goroutine and must not
// block. A zero threshold or nil fn uninstalls the hook. Only sampled
// requests carry traces, so full slow-op coverage needs sampling 1.
func (t *Tracer) OnSlow(threshold time.Duration, fn func(TraceSnapshot)) {
	if threshold <= 0 || fn == nil {
		t.slow.Store(nil)
		return
	}
	t.slow.Store(&slowHook{threshold: threshold, fn: fn})
}

// Finish completes a trace and commits it to the ring. Finishing a nil
// trace is a no-op.
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.duration = time.Since(tr.start)
	dur := tr.duration
	tr.mu.Unlock()
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.dropped++
	}
	t.ring[t.next] = tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
	if hook := t.slow.Load(); hook != nil && dur >= hook.threshold {
		hook.fn(tr.Snapshot())
	}
}

// Dropped returns how many completed traces have been evicted from the
// ring so far.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Recent returns up to n completed traces, most recent first.
func (t *Tracer) Recent(n int) []TraceSnapshot {
	t.mu.Lock()
	var traces []*Trace
	// Walk backwards from the most recently written slot.
	count := t.next
	if t.filled {
		count = len(t.ring)
	}
	for i := 0; i < count && len(traces) < n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if t.ring[idx] != nil {
			traces = append(traces, t.ring[idx])
		}
	}
	t.mu.Unlock()
	out := make([]TraceSnapshot, len(traces))
	for i, tr := range traces {
		out[i] = tr.Snapshot()
	}
	return out
}

// Find returns the completed trace with the given request ID, scanning
// the ring newest-first (so a reused ID resolves to its latest trace).
// It backs the /debug/traces?id= lookup that histogram exemplars link
// to.
func (t *Tracer) Find(id string) (TraceSnapshot, bool) {
	t.mu.Lock()
	var found *Trace
	count := t.next
	if t.filled {
		count = len(t.ring)
	}
	for i := 0; i < count; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if tr := t.ring[idx]; tr != nil && tr.ID == id {
			found = tr
			break
		}
	}
	t.mu.Unlock()
	if found == nil {
		return TraceSnapshot{}, false
	}
	return found.Snapshot(), true
}

// Trace is one request's span record. Methods are safe for concurrent
// use (batch bids fan one request out across workers) and safe on a nil
// receiver (unsampled requests).
type Trace struct {
	ID   string
	Name string

	start time.Time

	mu       sync.Mutex
	spans    []Span
	duration time.Duration

	// spanBuf backs spans for the common case (the durable-bid path
	// records ~7 stages); append only heap-allocates past 8 spans.
	spanBuf [8]Span
}

// Span is one named, timed section of a trace.
type Span struct {
	Name     string
	Start    time.Duration // offset from trace start
	Duration time.Duration
}

// AddSpan records a span that was timed externally — a stage measured
// before the trace existed (the wire server's frame read happens on the
// reader goroutine, before the request is even parsed) or on a
// goroutine that has no context to carry the trace. start is absolute;
// the span's offset is computed against the trace's own start. No-op on
// a nil trace.
func (tr *Trace) AddSpan(name string, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, Span{Name: name, Start: start.Sub(tr.start), Duration: d})
	tr.mu.Unlock()
}

// Exemplar returns the trace's ID, "" for a nil (unsampled) trace.
func (tr *Trace) Exemplar() string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// SetName renames the trace (the HTTP middleware starts a trace before
// routing decides the pattern).
func (tr *Trace) SetName(name string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Name = name
	tr.mu.Unlock()
}

// TraceSnapshot is the exported, JSON-ready form of a completed trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationUS int64          `json:"duration_us"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is one span of a TraceSnapshot, in microseconds.
type SpanSnapshot struct {
	Name       string `json:"name"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
}

// Snapshot copies the trace's current state.
func (tr *Trace) Snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := TraceSnapshot{
		ID:         tr.ID,
		Name:       tr.Name,
		Start:      tr.start,
		DurationUS: tr.duration.Microseconds(),
		Spans:      make([]SpanSnapshot, len(tr.spans)),
	}
	for i, s := range tr.spans {
		out.Spans[i] = SpanSnapshot{
			Name:       s.Name,
			StartUS:    s.Start.Microseconds(),
			DurationUS: s.Duration.Microseconds(),
		}
	}
	return out
}

// StageSummary renders the snapshot's spans as one "name=duration"
// per stage, space-separated in span order — the payload of the
// structured slow-op log line.
func (ts TraceSnapshot) StageSummary() string {
	var b strings.Builder
	for i, s := range ts.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteByte('=')
		b.WriteString((time.Duration(s.DurationUS) * time.Microsecond).String())
	}
	return b.String()
}

// ---- context propagation ----

type ctxKey int

// traceKey is the one context key a request's identity lives under; its
// value is always the *RequestCtx that carries it.
const traceKey ctxKey = iota

// RequestCtx is a context.Context carrying one request's identity: its
// ID and, when the request is sampled, its trace. A serving loop keeps
// one per connection and rebinds it to each request (Requests.Begin; a
// minted ID is held as its number until something spells it), so
// identity costs no allocation per request.
//
// Reuse rests on one invariant: every consumer downstream of ApplyEncodedCtx
// (journal group members, stage timers, view publication) is done with
// the context before the request is answered. Nothing may retain a
// RequestCtx, or a context derived from one, past the call it was
// handed to; its owner Resets it only between requests.
type RequestCtx struct {
	context.Context // the parent: deadline, cancellation, other values

	id  string
	seq uint64 // a minted ID not yet spelled (id is ""); 0 for none
	tr  *Trace
}

// Reset rebinds c to a request: the trace when it is sampled (tr
// non-nil, its own ID becomes the request ID), the bare ID otherwise.
func (c *RequestCtx) Reset(id string, tr *Trace) {
	if tr != nil {
		id = tr.ID
	}
	c.id, c.seq, c.tr = id, 0, tr
}

// mint rebinds c to a freshly minted ID and returns its trace when t
// samples the request, nil otherwise. Only a sampled trace, RequestIDFrom
// and AppendRequestID (the journal frame) spell the ID.
func (c *RequestCtx) mint(t *Tracer, name string, start time.Time) *Trace {
	c.Reset("", t.beginAt("", name, start))
	if c.seq = t.seq.Add(1); c.tr != nil {
		var buf [20]byte
		c.tr.ID = string(appendRequestID(buf[:0], c.seq))
		c.id, c.seq = c.tr.ID, 0
	}
	return c.tr
}

// Value answers the identity key with c itself — a pointer, so nothing
// is boxed — and defers every other key to the parent.
func (c *RequestCtx) Value(key any) any {
	if key == traceKey {
		return c
	}
	return c.Context.Value(key)
}

// WithTrace attaches a trace (possibly nil) to the context. The
// trace's own ID becomes the context's request ID, superseding any
// WithRequestID link below it.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return &RequestCtx{Context: ctx, id: tr.ID, tr: tr}
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if c, ok := ctx.Value(traceKey).(*RequestCtx); ok {
		return c.tr
	}
	return nil
}

// StartSpan opens a named span on the context's trace; a no-op when
// the context carries no trace, so instrumented code needs no sampling
// checks. Close it with .End().
func StartSpan(ctx context.Context, name string) StageEnd {
	return StageTimer(ctx, nil, name)
}

// WithRequestID attaches a request ID to the context (for requests
// that carry no sampled trace; a later WithTrace supersedes it).
func WithRequestID(ctx context.Context, id string) context.Context {
	return &RequestCtx{Context: ctx, id: id}
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	if c, ok := ctx.Value(traceKey).(*RequestCtx); ok && c.seq == 0 {
		return c.id
	}
	var buf [20]byte
	return string(AppendRequestID(buf[:0], ctx))
}

// AppendRequestID appends the context's request ID to dst, spelling a
// minted one from its number; with no ID it appends nothing.
func AppendRequestID(dst []byte, ctx context.Context) []byte {
	if c, ok := ctx.Value(traceKey).(*RequestCtx); ok && c.seq != 0 {
		return appendRequestID(dst, c.seq)
	} else if ok {
		return append(dst, c.id...)
	}
	return dst
}

// ExemplarID returns the context's request ID when the request is
// sampled (a trace rides the context) and "" otherwise — the rule for
// stamping histogram exemplars: only IDs that resolve in /debug/traces
// are worth linking from /metrics.
func ExemplarID(ctx context.Context) string {
	return TraceFrom(ctx).Exemplar()
}
