package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/datamarket/shield/internal/stats"
)

// Metric is one named number with its unit.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Report is everything one run produced.
type Report struct {
	Workload string
	Seed     uint64
	Host     Host
	// Correct is the outcome of the workload's correctness checks;
	// Checks says what was checked and what was found.
	Correct   bool
	Checks    []string
	Attempted int
	Failed    int
	// Rejected counts business rejections (blocked_until, bid_too_soon,
	// already_acquired): answers the market is meant to give, neither
	// successes nor failures.
	Rejected int
	// EndToEnd holds the five gated metrics; PerLayer is filled by a
	// traced run only.
	EndToEnd []Metric
	PerLayer []Metric
	// RoundRates is ops/s of each measured round, in order, by the
	// workload's own (noise-trimmed) definition of its rate; WallRates,
	// where it differs, is plain ops ÷ wall clock per round.
	RoundRates []float64
	WallRates  []float64
	SpanFile   string
}

// fastestThird is the mean of the fastest third (rounded up) of a set
// of round times. The two offline workloads time whole rounds, and what
// the host adds to a round is one-sided: a slow round is the work plus
// interference, a fast one is closest to the work alone. The median
// round inherits every contention episode longer than half the run —
// on this sandbox those made paper_sim's median round 2.7 times slower
// one run in five — so the rate is taken from the rounds that escaped,
// and a third of them rather than the single best, which is an extreme
// value and noisy in its own right.
func fastestThird(times []float64) float64 {
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	return stats.Mean(s[:(len(s)+2)/3])
}

// quantileUS reads the p-quantile off sorted nanosecond samples, in
// microseconds.
func quantileUS(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// phase accounts for the measured phase of a run: wall clock,
// allocation counts, CPU time and GC work, summed over one or more
// start/stop intervals (a workload that checks each round's output
// between rounds stops the phase while it does).
type phase struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    time.Duration
	refMS    [2]float64 // reference kernel before and after

	t0     time.Time
	m0     runtime.MemStats
	cpu0   time.Duration
	gcCPU0 time.Duration
}

// gcCPUTime is the runtime's running estimate of CPU time spent in the
// garbage collector, updated at the end of each cycle.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// newPhase times the reference kernel and returns a stopped phase.
func newPhase() *phase {
	p := &phase{}
	p.refMS[0] = float64(refKernel()) / 1e6
	return p
}

// start opens an interval. It collects first, so every interval begins
// from the same heap state: no garbage, no collection in flight.
func (p *phase) start() {
	runtime.GC()
	runtime.ReadMemStats(&p.m0)
	p.cpu0 = cpuTime()
	p.gcCPU0 = gcCPUTime()
	p.t0 = time.Now()
}

// stop closes the interval start opened and adds it to the totals.
func (p *phase) stop() {
	p.wall += time.Since(p.t0)
	p.cpu += cpuTime() - p.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.mallocs += m1.Mallocs - p.m0.Mallocs
	p.bytes += m1.TotalAlloc - p.m0.TotalAlloc
	p.gcCycles += m1.NumGC - p.m0.NumGC
	p.gcCPU += gcCPUTime() - p.gcCPU0
}

// finish times the reference kernel again, after the last interval.
func (p *phase) finish() { p.refMS[1] = float64(refKernel()) / 1e6 }

// heapLiveMiB is the live heap with the system at rest: the caller has
// idled its clients (and checkpointed its store, so no asynchronous
// checkpoint pins a snapshot); two collections then finish any sweep.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEnd assembles the five gated metrics, the same names and units
// on every workload.
func endToEnd(setup []float64, opsPerS, p50us float64, ph *phase, ops int, heapMiB float64) []Metric {
	return []Metric{
		{"setup_s", stats.Median(setup), "s"},
		{"ops_per_s", opsPerS, "1/s"},
		{"op_p50_us", p50us, "us"},
		{"allocs_per_op", float64(ph.mallocs) / float64(ops), "1"},
		{"heap_live_mb", heapMiB, "MiB"},
	}
}

// ownLayerMetrics are the per-layer metrics a traced run reads off its
// own measured phase, the same names on every workload: what the
// runtime did, the client-observed tail (reported, never gated), and
// what recording spans cost.
func ownLayerMetrics(ph *phase, ops int, p99us, p999us, traceOverhead float64) []Metric {
	gcShare := 0.0
	if ph.cpu > 0 {
		gcShare = float64(ph.gcCPU) / float64(ph.cpu)
	}
	return []Metric{
		{"runtime.cpu_us_per_op", float64(ph.cpu) / 1e3 / float64(ops), "us"},
		{"runtime.gc_cpu_share", gcShare, "1"},
		{"runtime.gc_cycles", float64(ph.gcCycles), "count"},
		{"runtime.alloc_bytes_per_op", float64(ph.bytes) / float64(ops), "B"},
		{"runtime.rss_peak_mb", rssPeakMiB(), "MiB"},
		{"host.ref_ms", (ph.refMS[0] + ph.refMS[1]) / 2, "ms"},
		{"client.op_p99_us", p99us, "us"},
		{"client.op_p999_us", p999us, "us"},
		{"trace.overhead_share", traceOverhead, "1"},
	}
}
