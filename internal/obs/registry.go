package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type as announced by its TYPE line.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition-format TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// CollectFunc produces a family's samples at scrape time. It is called
// under the registry's scrape path; emit appends one sample with the
// given value and label pairs (name1, value1, name2, value2, ...).
// Label pairs must come in a fixed order so series ordering is stable
// across scrapes.
type CollectFunc func(emit func(value float64, labelPairs ...string))

// family is one metric family: a name, HELP text, kind, and either a
// set of interned instrument series or a scrape-time collector.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram upper bounds (without +Inf)

	mu     sync.Mutex
	series map[string]any // *Counter | *Gauge | *Histogram, keyed by encoded label values
	order  []string       // insertion order of series keys
	labels []string       // label names for instrument families

	collect CollectFunc // non-nil for collector families
}

// Registry holds metric families in registration order and writes them
// in the Prometheus text exposition format. Registering the same family
// name twice panics: family names are global within a registry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family

	// onCollectError, when set, is invoked with the family name each
	// time a collector panics mid-scrape. The scrape itself continues
	// with the remaining families, so one bad collector cannot take
	// down the whole /metrics endpoint.
	onCollectError atomic.Value // func(family string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnCollectError installs a hook called with the family name whenever a
// collector panics during a scrape (the scrape continues). Typically
// wired to a scrape-errors counter.
func (r *Registry) OnCollectError(fn func(family string)) {
	r.onCollectError.Store(fn)
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric family %q registered twice", f.name))
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *Vec[*Counter] {
	f := r.register(&family{name: name, help: help, kind: KindCounter,
		series: make(map[string]any), labels: labelNames})
	return &Vec[*Counter]{fam: f, make: func() *Counter { return &Counter{} }}
}

// Counter registers a label-less counter and returns its single series.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *Vec[*Gauge] {
	f := r.register(&family{name: name, help: help, kind: KindGauge,
		series: make(map[string]any), labels: labelNames})
	return &Vec[*Gauge]{fam: f, make: func() *Gauge { return &Gauge{} }}
}

// Gauge registers a label-less gauge and returns its single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// HistogramVec registers a histogram family with the given bucket upper
// bounds (ascending; +Inf is implicit) and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *Vec[*Histogram] {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	b := make([]float64, len(buckets))
	copy(b, buckets)
	f := r.register(&family{name: name, help: help, kind: KindHistogram,
		series: make(map[string]any), labels: labelNames, buckets: b})
	return &Vec[*Histogram]{fam: f, make: func() *Histogram { return newHistogram(f.buckets) }}
}

// Histogram registers a label-less histogram and returns its single
// series.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// Collect registers a scrape-time family: fn is called on every
// WritePrometheus and emits the family's current samples. Use for
// values that already live elsewhere (market books, shard counters) so
// the scrape reads them in one consistent pass instead of mirroring
// them into instruments.
func (r *Registry) Collect(name, help string, kind Kind, fn CollectFunc) {
	r.register(&family{name: name, help: help, kind: kind, collect: fn})
}

// Vec is a family of series addressed by label values. With interns the
// label set: the first call for a given value tuple allocates the
// series, subsequent calls return the same pointer, so hot paths can
// either pre-bind (call With once, keep the pointer) or pay one map
// lookup per update.
type Vec[T any] struct {
	fam  *family
	make func() T
}

// With returns the series for the given label values (one per label
// name, in order). It panics on arity mismatch.
func (v *Vec[T]) With(labelValues ...string) T {
	f := v.fam
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels", f.name, len(labelValues), len(f.labels)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.(T)
	}
	s := v.make()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter is a monotonically increasing integer count, one atomic add
// per increment.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() float64 { return float64(c.n.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloatBits(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloatBits atomically adds v to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. Each bucket is one
// atomic counter (observations hit exactly one), cumulated only at
// exposition time; the total count is derived from the buckets, so
// _count and the +Inf bucket agree even mid-scrape. Each bucket also
// holds one exemplar slot: the last sampled request that landed there
// (ObserveTrace), exposed OpenMetrics-style so a tail bucket on
// /metrics links straight to its trace in /debug/traces.
type Histogram struct {
	upper     []float64       // shared, immutable
	buckets   []atomic.Uint64 // len(upper)+1, last = overflow (+Inf)
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // parallel to buckets
}

// Exemplar links one concrete observation to the trace that produced
// it: the observed value, the request/trace ID, and when it happened.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:     upper,
		buckets:   make([]atomic.Uint64, len(upper)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(upper)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveTrace(v, "") }

// exemplarEvery gates how often a bucket's exemplar slot is even
// considered for a rewrite: an empty slot fills on the first sampled
// hit, after that only every 16th hit to that bucket re-reads the
// clock. An exemplar only has to stay fresh enough that its trace
// still resolves in /debug/traces (the ring holds hundreds of traces),
// and skipping the rewrite keeps the sampled observation path
// allocation-free — and nearly clock-free — in steady state.
const exemplarEvery = 16

// exemplarRefresh additionally bounds rewrites in time, so a hot
// bucket doesn't churn its exemplar pointer on every 16th hit.
const exemplarRefresh = time.Millisecond

// ObserveTrace records one observation and, when traceID is non-empty,
// pins it as the owning bucket's exemplar (last writer wins, refreshed
// at most once per exemplarEvery hits and exemplarRefresh elapsed).
// Pass the ID only for sampled requests — obs.ExemplarID(ctx) encodes
// that rule — so every exemplar on /metrics resolves in /debug/traces.
func (h *Histogram) ObserveTrace(v float64, traceID string) {
	// Binary search for the first bucket whose upper bound holds v.
	i := sort.SearchFloat64s(h.upper, v)
	n := h.buckets[i].Add(1)
	addFloatBits(&h.sumBits, v)
	if traceID != "" {
		if old := h.exemplars[i].Load(); old == nil ||
			(n%exemplarEvery == 0 && time.Since(old.Time) >= exemplarRefresh) {
			h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
		}
	}
}

// ObserveSinceTrace records the seconds elapsed since start with an
// exemplar trace ID (see ObserveTrace).
func (h *Histogram) ObserveSinceTrace(start time.Time, traceID string) {
	h.ObserveTrace(time.Since(start).Seconds(), traceID)
}

// BucketExemplar returns bucket i's current exemplar (i indexes the
// ascending upper bounds, len(buckets)-1 being +Inf), or nil.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (aligned with upper, then
// +Inf), the total count, and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, running, h.Sum()
}

// LatencyBuckets is the default latency bucket ladder in seconds:
// 5µs .. ~20s, doubling. Fits both in-memory hot paths (lock waits,
// engine evaluation) and fsync-bound appends.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 23)
	for v := 5e-6; v < 25; v *= 2 {
		out = append(out, v)
	}
	return out
}

// SizeBuckets is a byte-size bucket ladder: 64B .. 16MB, ×4.
func SizeBuckets() []float64 {
	out := make([]float64, 0, 10)
	for v := 64.0; v <= 16*1024*1024; v *= 4 {
		out = append(out, v)
	}
	return out
}

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format: HELP and TYPE exactly once per
// family, all samples contiguous, label values escaped. A collector
// that panics is skipped (its partial output stands) and reported via
// OnCollectError; the remaining families still scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if f.collect != nil {
			r.runCollector(&b, f)
		} else {
			f.writeSeries(&b)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// runCollector invokes a collector family, recovering panics so one
// broken collector cannot fail the whole scrape.
func (r *Registry) runCollector(b *strings.Builder, f *family) {
	defer func() {
		if rec := recover(); rec != nil {
			if fn, ok := r.onCollectError.Load().(func(string)); ok && fn != nil {
				fn(f.name)
			}
		}
	}()
	f.collect(func(value float64, labelPairs ...string) {
		if len(labelPairs)%2 != 0 {
			panic(fmt.Sprintf("obs: %s: odd label pairs", f.name))
		}
		b.WriteString(f.name)
		if len(labelPairs) > 0 {
			b.WriteByte('{')
			for i := 0; i < len(labelPairs); i += 2 {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(b, "%s=%q", labelPairs[i], escapeLabel(labelPairs[i+1]))
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatValue(value))
		b.WriteByte('\n')
	})
}

// writeSeries emits an instrument family's series in insertion order.
func (f *family) writeSeries(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\xff")
		}
		switch s := series[i].(type) {
		case *Counter:
			f.sample(b, "", labelString(f.labels, values, "", ""), s.Value())
		case *Gauge:
			f.sample(b, "", labelString(f.labels, values, "", ""), s.Value())
		case *Histogram:
			cum, count, sum := s.snapshot()
			for j, ub := range f.buckets {
				f.sampleEx(b, "_bucket", labelString(f.labels, values, "le", formatValue(ub)), float64(cum[j]), s.exemplars[j].Load())
			}
			f.sampleEx(b, "_bucket", labelString(f.labels, values, "le", "+Inf"), float64(cum[len(cum)-1]), s.exemplars[len(cum)-1].Load())
			f.sample(b, "_sum", labelString(f.labels, values, "", ""), sum)
			f.sample(b, "_count", labelString(f.labels, values, "", ""), float64(count))
		}
	}
}

func (f *family) sample(b *strings.Builder, suffix, labels string, v float64) {
	f.sampleEx(b, suffix, labels, v, nil)
}

// sampleEx writes one sample line, appending an OpenMetrics-style
// exemplar suffix (" # {trace_id=\"...\"} value timestamp") when e is
// non-nil. Plain Prometheus-text consumers that split on the first
// space still parse the series name and value; OpenMetrics-aware ones
// (shieldtop, the metrics linter) get the trace link.
func (f *family) sampleEx(b *strings.Builder, suffix, labels string, v float64, e *Exemplar) {
	b.WriteString(f.name)
	b.WriteString(suffix)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	if e != nil {
		b.WriteString(" # {trace_id=")
		fmt.Fprintf(b, "%q", escapeLabel(e.TraceID))
		b.WriteString("} ")
		b.WriteString(formatValue(e.Value))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(float64(e.Time.UnixMilli())/1000, 'f', 3, 64))
	}
	b.WriteByte('\n')
}

// labelString renders {k="v",...} from parallel name/value slices plus
// an optional extra pair (the histogram le label); empty when there are
// no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(v))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel prepares a label value for %q quoting: the exposition
// format escapes backslash, double quote and newline inside quoted
// label values — %q handles all three plus control characters, so the
// only pre-processing needed is nothing; we still route values through
// this function to keep the escaping decision in one place. Since %q
// would also escape non-ASCII, which the format allows raw, do the
// three required escapes by hand and bypass %q.
func escapeLabel(v string) escapedLabel { return escapedLabel(v) }

// escapedLabel formats itself with the exposition format's three label
// escapes when printed with %q (it implements fmt.Formatter so %q does
// not double-escape).
type escapedLabel string

func (e escapedLabel) Format(f fmt.State, verb rune) {
	s := string(e)
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	io.WriteString(f, `"`+s+`"`)
}

// escapeHelp escapes HELP text (backslash and newline only; quotes are
// legal there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip representation, integers without exponent.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
