package loadrig

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Op classes the rig drives and reports on. Every operation the driver
// issues is exactly one class; SLO clauses scope to these names.
const (
	ClassBid     = "bid"     // SubmitBid
	ClassQuery   = "query"   // read-side ops: Datasets, WaitRemaining, SellerBalance, Period
	ClassTick    = "tick"    // period advances
	ClassReplica = "replica" // read-side ops served by a read replica's HTTP listener
)

// sample is one completed operation, latency measured from its
// open-loop scheduled send time.
type sample struct {
	class   string
	latency time.Duration
	err     bool // transport/server error (not a business rejection)
	reject  bool // business rejection: wait active, bid too soon, already acquired
	won     bool // bid accepted
}

// recorder accumulates samples for one worker; workers each own one so
// the hot path takes no locks, and Run merges them afterwards.
type recorder struct {
	samples []sample
}

func (r *recorder) record(s sample) { r.samples = append(r.samples, s) }

// ClassStats is the per-op-class slice of a Report.
type ClassStats struct {
	Count   int // operations issued
	Errors  int // transport/server errors
	Rejects int // business rejections (shield waits, duplicate bids)
	Won     int // bids accepted (ClassBid only)
	Lost    int // bids priced out (ClassBid only)

	P50, P99, P999, Max time.Duration
}

// ErrorRate is Errors/Count (0 for an empty class).
func (c ClassStats) ErrorRate() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Count)
}

// Report is the measured outcome of one rig run.
type Report struct {
	Classes  map[string]*ClassStats
	Ops      int           // total operations issued
	Errors   int           // total transport/server errors
	Duration time.Duration // first scheduled send to last completion
	// Throughput is completed operations per second of wall time.
	Throughput float64

	// ServerQuantiles maps "histogram{labels} pXX" descriptions to the
	// server-side histogram estimate in seconds, for cross-checking the
	// client-side percentiles above. Populated by Run when the rig's
	// telemetry carries the matching series.
	ServerQuantiles map[string]float64

	// ServerStages is the server-side decomposition of the durable bid
	// path, keyed by stage class (see StageClasses): where a bid's
	// latency went — queue wait vs fsync vs apply — next to the
	// client-side percentiles above. Populated by Run from the rig's
	// shield_stage_seconds histograms; stages the run never exercised
	// (e.g. group_commit.fsync without Fsync) are absent. SLO clauses can
	// bound these directly: bid.fsync.p99<2ms.
	ServerStages map[string]StageStats

	// ReplicaMaxLag is the worst replication staleness (seconds) any
	// follower reported while the run's 25ms lag poll sampled it —
	// including any follower-kill reconnect windows. The replica.lag SLO
	// clause bounds it. ReplicaLagSamples counts the polls; zero means
	// lag was never measured (no followers), which fails any lag clause.
	ReplicaMaxLag     float64
	ReplicaLagSamples int

	// Invariants holds the post-run invariant summary (money
	// conservation, journal replay, replica convergence); empty until
	// CheckInvariants runs.
	Invariants string
}

// StageStats summarizes one server-side write-path stage from its
// shield_stage_seconds histogram. Quantiles are histogram estimates in
// seconds (bucket-edge interpolated, so up to one doubling above the
// true value — same error bar as ServerQuantiles).
type StageStats struct {
	// Stage is the shield_stage_seconds label the class maps to, e.g.
	// "group_commit.fsync".
	Stage string `json:"stage"`
	// Count is the number of operations the stage observed.
	Count uint64 `json:"count"`
	// P50, P99, P999 are quantile estimates in seconds.
	P50  float64 `json:"p50_sec"`
	P99  float64 `json:"p99_sec"`
	P999 float64 `json:"p999_sec"`
}

// StageClasses maps the SLO-visible stage class names to the
// shield_stage_seconds stage labels they read. An SLO clause like
// "bid.fsync.p99<2ms" bounds the server-side fsync stage of the bid
// path the same way "bid.p99<5ms" bounds the client-observed whole.
var StageClasses = map[string]string{
	"bid.queue_wait": "group_commit.queue_wait",
	"bid.append":     "group_commit.append",
	"bid.fsync":      "group_commit.fsync",
	"bid.apply":      "apply",
	"bid.publish":    "publish",
}

// buildReport merges per-worker recorders into a Report.
func buildReport(recs []*recorder, duration time.Duration) *Report {
	byClass := map[string][]time.Duration{}
	rep := &Report{Classes: map[string]*ClassStats{}, Duration: duration}
	for _, rec := range recs {
		for _, s := range rec.samples {
			st := rep.Classes[s.class]
			if st == nil {
				st = &ClassStats{}
				rep.Classes[s.class] = st
			}
			st.Count++
			rep.Ops++
			switch {
			case s.err:
				st.Errors++
				rep.Errors++
			case s.reject:
				st.Rejects++
			case s.class == ClassBid && s.won:
				st.Won++
			case s.class == ClassBid:
				st.Lost++
			}
			byClass[s.class] = append(byClass[s.class], s.latency)
		}
	}
	for class, lats := range byClass {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st := rep.Classes[class]
		st.P50 = percentile(lats, 0.50)
		st.P99 = percentile(lats, 0.99)
		st.P999 = percentile(lats, 0.999)
		st.Max = lats[len(lats)-1]
	}
	if duration > 0 {
		rep.Throughput = float64(rep.Ops) / duration.Seconds()
	}
	return rep
}

// percentile returns the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// metric resolves one SLO clause target against the report. The bool
// is false when the metric cannot be measured (unknown class, empty
// class, unknown metric) — Evaluate treats that as a violation.
func (r *Report) metric(class, metric string) (float64, bool) {
	if class == "" {
		switch metric {
		case "error_rate":
			if r.Ops == 0 {
				return 0, false
			}
			return float64(r.Errors) / float64(r.Ops), true
		case "throughput":
			return r.Throughput, r.Ops > 0
		}
		return 0, false
	}
	// replica.lag resolves against the run's staleness sampling, not
	// client latency samples; a run that never measured lag fails the
	// clause rather than passing it silently.
	if metric == "lag" {
		if class != ClassReplica || r.ReplicaLagSamples == 0 {
			return 0, false
		}
		return r.ReplicaMaxLag, true
	}
	// Stage classes (bid.fsync, bid.apply, ...) resolve against the
	// server-side stage breakdown instead of client samples.
	if sg, ok := r.ServerStages[class]; ok {
		if sg.Count == 0 {
			return 0, false
		}
		switch metric {
		case "p50":
			return sg.P50, true
		case "p99":
			return sg.P99, true
		case "p999":
			return sg.P999, true
		}
		return 0, false
	}
	st := r.Classes[class]
	if st == nil || st.Count == 0 {
		return 0, false
	}
	switch metric {
	case "p50":
		return st.P50.Seconds(), true
	case "p99":
		return st.P99.Seconds(), true
	case "p999":
		return st.P999.Seconds(), true
	case "max":
		return st.Max.Seconds(), true
	case "error_rate":
		return st.ErrorRate(), true
	}
	return 0, false
}

// String renders the report as an aligned operator-facing table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %7s %7s %6s %6s %10s %10s %10s %10s\n",
		"class", "count", "errors", "rejects", "won", "lost", "p50", "p99", "p999", "max")
	classes := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		st := r.Classes[c]
		fmt.Fprintf(&b, "%-6s %8d %7d %7d %6d %6d %10s %10s %10s %10s\n",
			c, st.Count, st.Errors, st.Rejects, st.Won, st.Lost,
			roundLat(st.P50), roundLat(st.P99), roundLat(st.P999), roundLat(st.Max))
	}
	fmt.Fprintf(&b, "total: %d ops in %s (%.0f ops/sec), %d errors\n",
		r.Ops, r.Duration.Round(time.Millisecond), r.Throughput, r.Errors)
	if r.ReplicaLagSamples > 0 {
		fmt.Fprintf(&b, "replica max lag: %s over %d staleness samples\n",
			secLat(r.ReplicaMaxLag), r.ReplicaLagSamples)
	}
	if len(r.ServerQuantiles) > 0 {
		keys := make([]string, 0, len(r.ServerQuantiles))
		for k := range r.ServerQuantiles {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "server %s = %s\n", k,
				time.Duration(r.ServerQuantiles[k]*float64(time.Second)).Round(time.Microsecond))
		}
	}
	if len(r.ServerStages) > 0 {
		fmt.Fprintf(&b, "server stage breakdown (where the bid path's time went):\n")
		fmt.Fprintf(&b, "  %-15s %-24s %9s %10s %10s %10s\n",
			"class", "stage", "count", "p50", "p99", "p999")
		classes := make([]string, 0, len(r.ServerStages))
		for c := range r.ServerStages {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			sg := r.ServerStages[c]
			fmt.Fprintf(&b, "  %-15s %-24s %9d %10s %10s %10s\n",
				c, sg.Stage, sg.Count,
				secLat(sg.P50), secLat(sg.P99), secLat(sg.P999))
		}
	}
	return b.String()
}

func roundLat(d time.Duration) time.Duration {
	return d.Round(10 * time.Microsecond)
}

// secLat renders a seconds-valued histogram estimate as a duration.
func secLat(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond)
}
