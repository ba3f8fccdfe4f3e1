package loadrig

import (
	"strings"
	"testing"
)

// startTestRig boots a small rig and registers cleanup.
func startTestRig(t *testing.T, rc RigConfig) *Rig {
	t.Helper()
	rig, err := StartRig(rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rig.Close(); err != nil {
			t.Errorf("rig close: %v", err)
		}
	})
	return rig
}

// TestRunSmoke drives a small mixed-transport run end to end: every
// scheduled op completes, no transport errors, the persona mix produces
// wins, losses and shield rejections, and both post-run invariants
// hold.
func TestRunSmoke(t *testing.T) {
	rig := startTestRig(t, RigConfig{Datasets: 8, Buyers: 64})
	sc := Scenario{
		Transport: TransportBoth,
		Clients:   64,
		Rate:      4000,
		Ops:       3000,
		TickEvery: 200,
		Seed:      7,
	}
	rep, err := Run(rig, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != sc.Ops {
		t.Fatalf("recorded %d ops, scheduled %d", rep.Ops, sc.Ops)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors in a local smoke run:\n%s", rep.Errors, rep)
	}
	bids := rep.Classes[ClassBid]
	if bids == nil || bids.Count == 0 {
		t.Fatalf("no bids recorded:\n%s", rep)
	}
	if bids.Won == 0 || bids.Lost+bids.Rejects == 0 {
		t.Fatalf("persona mix produced no contention (won=%d lost=%d rejects=%d)",
			bids.Won, bids.Lost, bids.Rejects)
	}
	if rep.Classes[ClassQuery] == nil || rep.Classes[ClassTick] == nil {
		t.Fatalf("missing op classes:\n%s", rep)
	}
	if bids.P99 <= 0 || bids.Max < bids.P99 || bids.P99 < bids.P50 {
		t.Fatalf("incoherent latency stats: p50=%v p99=%v max=%v", bids.P50, bids.P99, bids.Max)
	}

	inv, err := rig.CheckInvariants()
	if err != nil {
		t.Fatalf("invariants after run: %v", err)
	}
	if !strings.Contains(inv, "money conserved") {
		t.Fatalf("invariant summary %q", inv)
	}

	slo, err := ParseSLO("bid.p99<10s,query.p99<10s,error_rate<0.1%")
	if err != nil {
		t.Fatal(err)
	}
	if v := slo.Evaluate(rep); len(v) != 0 {
		t.Fatalf("generous SLO violated:\n%s\n%v", rep, v)
	}
}

// TestMutationCanary is the gate's self-test: bound one op class's
// latency below any real round trip and assert the SLO evaluation trips
// on that class, by name and on a measured value, while the untouched
// class still passes. A load rig whose gate cannot fail is a rubber
// stamp.
func TestMutationCanary(t *testing.T) {
	rig := startTestRig(t, RigConfig{Datasets: 4, Buyers: 32})
	sc := Scenario{
		Transport: TransportWire,
		Clients:   32,
		Rate:      4000,
		Ops:       1200,
		Seed:      11,
	}
	rep, err := Run(rig, sc)
	if err != nil {
		t.Fatal(err)
	}
	// No round trip takes under a nanosecond, so bid.p99 trips on any
	// host. The bystander clause proves it trips only that clause, so
	// its bound sits nowhere near the host's speed: at 250ms it was a
	// host-speed assertion in disguise, and a query p99 above that under
	// a full parallel `go test ./...` failed the canary with two
	// violations.
	slo, err := ParseSLO("bid.p99<1ns,query.p99<2s")
	if err != nil {
		t.Fatal(err)
	}
	v := slo.Evaluate(rep)
	if len(v) != 1 {
		t.Fatalf("a 1ns bid bound produced %d violations, want exactly 1 (bid.p99): %v", len(v), v)
	}
	if !strings.Contains(v[0].String(), "bid.p99<1ns violated") {
		t.Fatalf("violation %q does not name the bid clause", v[0])
	}
	if v[0].Unmeasured {
		t.Fatalf("violation %q was not measured", v[0])
	}
}

// TestServerQuantileCrossCheck compares the client-side percentiles
// (measured from scheduled send times) against the server-side
// histogram estimates from the same run — the regression-proofing for
// the latency accounting itself. Server-observed time is a component of
// client-observed time, so the server estimate must be positive and
// must not exceed the client-side maximum by more than the histogram's
// bucket-edge overestimate.
func TestServerQuantileCrossCheck(t *testing.T) {
	rig := startTestRig(t, RigConfig{Datasets: 8, Buyers: 64})
	rep, err := Run(rig, Scenario{
		Transport: TransportBoth,
		Clients:   64,
		Rate:      4000,
		Ops:       2400,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSeries := []string{
		`shield_http_request_seconds{route="POST /v1/bids",status="200"} p99`,
		`shield_wire_request_seconds{op="bid",status="ok"} p99`,
	}
	clientMax := rep.Classes[ClassBid].Max.Seconds()
	for _, name := range wantSeries {
		got, ok := rep.ServerQuantiles[name]
		if !ok {
			t.Fatalf("missing server quantile %s (have %v)", name, rep.ServerQuantiles)
		}
		if got <= 0 {
			t.Errorf("server quantile %s = %v, want > 0", name, got)
		}
		// Quantile interpolates up to its bucket's upper edge; latency
		// buckets double, so the estimate is at most 2x the true value.
		if got > 2*clientMax+0.001 {
			t.Errorf("server quantile %s = %vs exceeds client-side max %vs beyond bucket error",
				name, got, clientMax)
		}
	}
}
