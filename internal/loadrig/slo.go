package loadrig

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// An SLO is a parsed service-level objective spec: an AND of clauses,
// each bounding one measured quantity. The textual form is a
// comma-separated list like
//
//	bid.p99<5ms,query.p999<20ms,error_rate<0.1%
//
// Each clause is METRIC OP VALUE. Metrics:
//
//	CLASS.p50 | CLASS.p99 | CLASS.p999 | CLASS.max   latency percentile
//	                                                 for one op class
//	                                                 (Go durations: 5ms)
//	error_rate | CLASS.error_rate                    transport/server
//	                                                 error fraction
//	                                                 (0.001 or 0.1%)
//	throughput                                       achieved ops/sec
//	replica.lag                                      worst replication
//	                                                 staleness any
//	                                                 follower showed
//	                                                 during the run
//
// CLASS is a client op class (bid, query, tick) or a server-side stage
// class from StageClasses — bid.fsync.p99<2ms bounds the p99 of the
// group-commit fsync stage as the server measured it, not the
// client-observed round trip. Stage classes support p50/p99/p999 only.
//
// Ops are <, <=, >, >= — latency and error-rate clauses use < or <=,
// throughput floors use > or >=, but any pairing parses.
type SLO struct {
	Clauses []SLOClause
	// Spec is the original text, kept for reports.
	Spec string
}

// SLOClause is one bound in an SLO.
type SLOClause struct {
	// Class is the op class the clause scopes to; empty means run-wide
	// (error_rate, throughput).
	Class string
	// Metric is "p50", "p99", "p999", "max", "error_rate", or
	// "throughput".
	Metric string
	// Op is "<", "<=", ">", or ">=".
	Op string
	// Bound is the threshold: seconds for latency metrics, a fraction
	// for error_rate, ops/sec for throughput.
	Bound float64
	// Text is the clause as written, for violation messages.
	Text string
}

// ParseSLO parses a comma-separated SLO spec. The empty string parses
// to an SLO with no clauses (always satisfied).
func ParseSLO(spec string) (SLO, error) {
	slo := SLO{Spec: spec}
	if strings.TrimSpace(spec) == "" {
		return slo, nil
	}
	for _, raw := range strings.Split(spec, ",") {
		text := strings.TrimSpace(raw)
		if text == "" {
			continue
		}
		c, err := parseClause(text)
		if err != nil {
			return SLO{}, err
		}
		slo.Clauses = append(slo.Clauses, c)
	}
	return slo, nil
}

// parseClause parses one METRIC OP VALUE term.
func parseClause(text string) (SLOClause, error) {
	// Longest operators first so "<=" is not read as "<" + "=5ms".
	var op string
	var idx int
	for _, cand := range []string{"<=", ">=", "<", ">"} {
		if i := strings.Index(text, cand); i >= 0 {
			op, idx = cand, i
			break
		}
	}
	if op == "" {
		return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q has no comparator (<, <=, >, >=)", text)
	}
	metric := strings.TrimSpace(text[:idx])
	value := strings.TrimSpace(text[idx+len(op):])
	if metric == "" || value == "" {
		return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q is missing a metric or a bound", text)
	}

	c := SLOClause{Op: op, Text: text}
	if dot := strings.LastIndex(metric, "."); dot >= 0 {
		c.Class, c.Metric = metric[:dot], metric[dot+1:]
		if c.Class == "" {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q has an empty op class", text)
		}
	} else {
		c.Metric = metric
	}

	switch c.Metric {
	case "lag":
		if c.Class != ClassReplica {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: lag is a replica metric (write replica.lag)", text)
		}
		d, err := time.ParseDuration(value)
		if err != nil {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: bad duration %q: %v", text, value, err)
		}
		c.Bound = d.Seconds()
	case "p50", "p99", "p999", "max":
		if c.Class == "" {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: latency metrics need an op class (e.g. bid.%s)", text, c.Metric)
		}
		d, err := time.ParseDuration(value)
		if err != nil {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: bad duration %q: %v", text, value, err)
		}
		c.Bound = d.Seconds()
	case "error_rate":
		f, err := parseFraction(value)
		if err != nil {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: %v", text, err)
		}
		c.Bound = f
	case "throughput":
		if c.Class != "" {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: throughput is run-wide, drop the op class", text)
		}
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: bad throughput %q", text, value)
		}
		c.Bound = f
	default:
		return SLOClause{}, fmt.Errorf("loadrig: SLO clause %q: unknown metric %q (want p50, p99, p999, max, error_rate, throughput, or lag)", text, c.Metric)
	}
	return c, nil
}

// parseFraction parses "0.001" or "0.1%" into a fraction.
func parseFraction(s string) (float64, error) {
	pct := false
	if t, ok := strings.CutSuffix(s, "%"); ok {
		s, pct = t, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	if pct {
		f /= 100
	}
	if f < 0 {
		return 0, fmt.Errorf("negative rate %q", s)
	}
	return f, nil
}

// A Violation is one SLO clause the measured run failed, with both
// sides of the comparison rendered for the report. Unmeasured marks a
// clause the run produced no value for; Measured is then meaningless.
type Violation struct {
	Clause     SLOClause
	Measured   float64
	Unmeasured bool
}

// String renders the violation with the clause as written, e.g.
// "bid.p99<5ms violated: measured 12.4ms", or "bid.fsync.p99<1s
// violated: not measured".
func (v Violation) String() string {
	if v.Unmeasured {
		return v.Clause.Text + " violated: not measured"
	}
	measured := formatMeasured(v.Clause.Metric, v.Measured)
	return fmt.Sprintf("%s violated: measured %s", v.Clause.Text, measured)
}

func formatMeasured(metric string, val float64) string {
	switch metric {
	case "p50", "p99", "p999", "max", "lag":
		return time.Duration(val * float64(time.Second)).Round(time.Microsecond).String()
	case "error_rate":
		return fmt.Sprintf("%.4g%%", val*100)
	default:
		return fmt.Sprintf("%.6g", val)
	}
}

// Evaluate checks the report against every clause and returns the
// violations in clause order (empty means the SLO holds). Clauses the
// run never measured — an op class it never exercised, a server stage it
// did not run or could not see — are unmeasured violations: an SLO on a
// quantity with zero samples is a misconfigured gate, and a gate that
// silently passes is worse than one that fails loudly.
func (s SLO) Evaluate(r *Report) []Violation {
	var out []Violation
	for _, c := range s.Clauses {
		measured, ok := r.metric(c.Class, c.Metric)
		if !ok {
			out = append(out, Violation{Clause: c, Unmeasured: true})
			continue
		}
		if !compare(measured, c.Op, c.Bound) {
			out = append(out, Violation{Clause: c, Measured: measured})
		}
	}
	return out
}

func compare(measured float64, op string, bound float64) bool {
	switch op {
	case "<":
		return measured < bound
	case "<=":
		return measured <= bound
	case ">":
		return measured > bound
	case ">=":
		return measured >= bound
	}
	return false
}
