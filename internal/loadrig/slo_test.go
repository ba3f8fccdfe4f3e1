package loadrig

import (
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/node"
)

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("bid.p99<5ms, query.p999<=20ms ,error_rate<0.1%,throughput>=500,bid.error_rate<0.002")
	if err != nil {
		t.Fatal(err)
	}
	want := []SLOClause{
		{Class: "bid", Metric: "p99", Op: "<", Bound: 0.005, Text: "bid.p99<5ms"},
		{Class: "query", Metric: "p999", Op: "<=", Bound: 0.020, Text: "query.p999<=20ms"},
		{Metric: "error_rate", Op: "<", Bound: 0.001, Text: "error_rate<0.1%"},
		{Metric: "throughput", Op: ">=", Bound: 500, Text: "throughput>=500"},
		{Class: "bid", Metric: "error_rate", Op: "<", Bound: 0.002, Text: "bid.error_rate<0.002"},
	}
	if len(slo.Clauses) != len(want) {
		t.Fatalf("parsed %d clauses, want %d", len(slo.Clauses), len(want))
	}
	for i, w := range want {
		g := slo.Clauses[i]
		if g.Class != w.Class || g.Metric != w.Metric || g.Op != w.Op || g.Text != w.Text {
			t.Errorf("clause %d = %+v, want %+v", i, g, w)
		}
		if diff := g.Bound - w.Bound; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("clause %d bound = %v, want %v", i, g.Bound, w.Bound)
		}
	}
}

func TestParseSLOEmpty(t *testing.T) {
	slo, err := ParseSLO("  ")
	if err != nil || len(slo.Clauses) != 0 {
		t.Fatalf("empty spec: %v, %d clauses", err, len(slo.Clauses))
	}
	if v := slo.Evaluate(&Report{}); len(v) != 0 {
		t.Fatalf("empty SLO produced violations: %v", v)
	}
}

func TestParseSLORejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"bid.p99=5ms",       // no comparator
		"p99<5ms",           // latency without a class
		"bid.p99<fast",      // bad duration
		"bid.p42<5ms",       // unknown metric
		"error_rate<-1%",    // negative rate
		"bid.throughput>10", // throughput is run-wide
		"<5ms",              // no metric
		"bid.p99<",          // no bound
		".p99<5ms",          // empty class
	} {
		if _, err := ParseSLO(spec); err == nil {
			t.Errorf("ParseSLO(%q) accepted a malformed spec", spec)
		}
	}
}

func testReport() *Report {
	return &Report{
		Classes: map[string]*ClassStats{
			ClassBid:   {Count: 1000, Errors: 2, P50: 1 * time.Millisecond, P99: 4 * time.Millisecond, P999: 9 * time.Millisecond, Max: 12 * time.Millisecond},
			ClassQuery: {Count: 500, P50: 200 * time.Microsecond, P99: 1 * time.Millisecond, P999: 2 * time.Millisecond, Max: 3 * time.Millisecond},
		},
		Ops:        1500,
		Errors:     2,
		Duration:   2 * time.Second,
		Throughput: 750,
	}
}

func TestEvaluatePassesAndFails(t *testing.T) {
	r := testReport()

	mustParse := func(spec string) SLO {
		t.Helper()
		s, err := ParseSLO(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	if v := mustParse("bid.p99<5ms,query.p999<=2ms,error_rate<0.5%,throughput>=500").Evaluate(r); len(v) != 0 {
		t.Fatalf("satisfied SLO reported violations: %v", v)
	}

	v := mustParse("bid.p99<2ms,error_rate<0.1%,throughput>=1000").Evaluate(r)
	if len(v) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(v), v)
	}
	if v[0].Clause.Text != "bid.p99<2ms" || v[0].Measured != 0.004 {
		t.Errorf("violation 0 = %v", v[0])
	}
	if !strings.Contains(v[0].String(), "bid.p99<2ms violated") {
		t.Errorf("violation string %q does not name the clause", v[0].String())
	}
	if !strings.Contains(v[1].String(), "error_rate<0.1%") {
		t.Errorf("violation 1 = %q", v[1].String())
	}
}

func TestEvaluateBoundaryComparators(t *testing.T) {
	r := testReport() // bid.p99 is exactly 4ms
	for spec, wantViolations := range map[string]int{
		"bid.p99<4ms":  1, // strict: equal fails
		"bid.p99<=4ms": 0, // inclusive: equal passes
	} {
		slo, err := ParseSLO(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v := slo.Evaluate(r); len(v) != wantViolations {
			t.Errorf("%s: %d violations, want %d", spec, len(v), wantViolations)
		}
	}
}

func TestEvaluateUnmeasuredClassIsViolation(t *testing.T) {
	r := testReport()
	slo, err := ParseSLO("tick.p99<50ms")
	if err != nil {
		t.Fatal(err)
	}
	if v := slo.Evaluate(r); len(v) != 1 {
		t.Fatalf("SLO over an unexercised class passed silently: %v", v)
	}
}

// TestUnmeasuredClauseSaysSo: a clause over a quantity the run never
// measured is a violation that says "not measured" rather than printing
// a zero as if it had been measured — in-process, a fsync stage clause
// on a run without fsync; against a running server, any stage clause,
// since the rig cannot read a remote server's stages.
func TestUnmeasuredClauseSaysSo(t *testing.T) {
	sc := Scenario{Transport: TransportWire, Clients: 8, Rate: 4000, Ops: 200, Seed: 3}
	inProcess := func(t *testing.T) *Rig { return startTestRig(t, RigConfig{Datasets: 4, Buyers: 16}) }
	dialed := func(t *testing.T) *Rig {
		n, err := node.Start(node.Config{
			Market: market.Config{
				Engine: core.Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1, MinBid: 1},
				Seed:   3,
			},
			Addr:     "127.0.0.1:0",
			WireAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		rig, err := DialRig(n.HTTPAddr, n.WireAddr, RigConfig{Datasets: 4, Buyers: 16})
		if err != nil {
			t.Fatal(err)
		}
		return rig
	}
	for _, tc := range []struct {
		name   string
		rig    func(*testing.T) *Rig
		clause string
	}{
		{"fsync stage without fsync", inProcess, "bid.fsync.p99<1s"},
		{"stage clause on a dialed server", dialed, "bid.apply.p99<1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.rig(t), sc)
			if err != nil {
				t.Fatal(err)
			}
			slo, err := ParseSLO("bid.p99<10s," + tc.clause)
			if err != nil {
				t.Fatal(err)
			}
			v := slo.Evaluate(rep)
			if len(v) != 1 || !v[0].Unmeasured {
				t.Fatalf("violations %v, want exactly one unmeasured (%s)", v, tc.clause)
			}
			if got, want := v[0].String(), tc.clause+" violated: not measured"; got != want {
				t.Fatalf("violation reads %q, want %q", got, want)
			}
		})
	}
}
