package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
)

// expositionFrame renders a canned /metrics body with the given bid
// counts, so consecutive polls show a rate.
func expositionFrame(bids int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP shield_wire_request_seconds Wire request latency.\n")
	fmt.Fprintf(&b, "# TYPE shield_wire_request_seconds histogram\n")
	cum := 0
	for i, le := range []string{"0.001", "0.01", "+Inf"} {
		cum = bids * (i + 1) / 3
		if le == "+Inf" {
			cum = bids
		}
		ex := ""
		if le == "0.01" {
			ex = ` # {trace_id="req-00bidtail"} 0.004 1000.000`
		}
		fmt.Fprintf(&b, "shield_wire_request_seconds_bucket{op=\"bid\",status=\"ok\",le=%q} %d%s\n", le, cum, ex)
	}
	fmt.Fprintf(&b, "shield_wire_request_seconds_sum{op=\"bid\",status=\"ok\"} %g\n", float64(bids)*0.002)
	fmt.Fprintf(&b, "shield_wire_request_seconds_count{op=\"bid\",status=\"ok\"} %d\n", bids)

	fmt.Fprintf(&b, "# HELP shield_stage_seconds Write-path stage latency.\n")
	fmt.Fprintf(&b, "# TYPE shield_stage_seconds histogram\n")
	for _, stage := range []string{"group_commit.fsync", "apply"} {
		fmt.Fprintf(&b, "shield_stage_seconds_bucket{stage=%q,le=\"0.001\"} %d # {trace_id=\"req-%s\"} 0.0004 1000.000\n", stage, bids, stage[:5])
		fmt.Fprintf(&b, "shield_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, bids)
		fmt.Fprintf(&b, "shield_stage_seconds_sum{stage=%q} %g\n", stage, float64(bids)*0.0004)
		fmt.Fprintf(&b, "shield_stage_seconds_count{stage=%q} %d\n", stage, bids)
	}

	fmt.Fprintf(&b, "# HELP shield_journal_group_records Records per flushed group.\n")
	fmt.Fprintf(&b, "# TYPE shield_journal_group_records histogram\n")
	fmt.Fprintf(&b, "shield_journal_group_records_bucket{le=\"+Inf\"} 10\n")
	fmt.Fprintf(&b, "shield_journal_group_records_sum 52\n")
	fmt.Fprintf(&b, "shield_journal_group_records_count 10\n")

	fmt.Fprintf(&b, "# HELP shield_runtime_goroutines Live goroutines.\n")
	fmt.Fprintf(&b, "# TYPE shield_runtime_goroutines gauge\n")
	fmt.Fprintf(&b, "shield_runtime_goroutines 42\n")
	fmt.Fprintf(&b, "# HELP shield_wire_connections Open wire connections.\n")
	fmt.Fprintf(&b, "# TYPE shield_wire_connections gauge\n")
	fmt.Fprintf(&b, "shield_wire_connections 16\n")
	return b.String()
}

const cannedTraces = `{"dropped":3,"traces":[
  {"id":"req-00000001","name":"wire.bid","start":"2026-08-08T12:00:00Z","duration_us":1800,
   "spans":[{"name":"wire.read","start_us":0,"duration_us":20},
            {"name":"group_commit.fsync","start_us":100,"duration_us":900}]}
]}`

// TestDashboardRendersCannedServer drives two refresh frames against a
// canned server and checks every panel: rates from count deltas,
// quantiles, the stage table with its tail exemplars, group-commit and
// runtime summaries, and the trace list.
func TestDashboardRendersCannedServer(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Authorization"); got != "Bearer sesame" {
			t.Errorf("poll sent Authorization %q", got)
		}
		switch r.URL.Path {
		case "/metrics":
			// First poll sees 300 bids, second 500 → 200 bids over the
			// 100ms interval = ~2000/s.
			n := 300
			if polls.Add(1) > 1 {
				n = 500
			}
			fmt.Fprint(w, expositionFrame(n))
		case "/debug/traces":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, cannedTraces)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	var out, errw strings.Builder
	code := run([]string{
		"-addr", srv.URL, "-token", "sesame",
		"-interval", "100ms", "-n", "2", "-plain",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()

	for _, want := range []string{
		"wire.bid",            // op class row
		"2000/s",              // rate from the 200-bid delta over 100ms
		"group_commit.fsync",  // stage table row
		"req-group",           // fsync stage's tail exemplar (req-<stage[:5]>)
		"mean group 5.2",      // 52 records / 10 flushes
		"42 goroutines",       // runtime panel
		"wire=16",             // connection gauge
		"recent traces",       // trace panel header
		"req-00000001",        // the canned trace
		"group_commit.fsync=", // its stage summary
		"3 evicted",           // ring drop count
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("dashboard output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Fatal("-plain frame still clears the screen")
	}
}

// TestRunFailsOnUnreachableServer pins the exit code contract.
func TestRunFailsOnUnreachableServer(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-addr", "http://127.0.0.1:1", "-n", "1"}, &out, &errw)
	if code != 1 {
		t.Fatalf("run against dead server = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "shieldtop:") {
		t.Fatalf("no error line on stderr: %q", errw.String())
	}
}

// TestQuantileInterpolation pins the bucket math the p50/p99 columns
// rest on.
func TestQuantileInterpolation(t *testing.T) {
	h := &hist{
		buckets: []bucket{{le: 0.001, cum: 50}, {le: 0.01, cum: 90}, {le: math.Inf(1), cum: 100}},
		count:   100,
	}
	if got := h.quantile(0.50); math.Abs(got-0.001) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.001 (rank 50 closes the first bucket)", got)
	}
	// Rank 99 falls past the last finite bucket: clamp to its edge.
	if got := h.quantile(0.99); got != 0.01 {
		t.Fatalf("p99 = %v, want clamp to 0.01", got)
	}
	// Rank 75 is 25/40 of the way through the second bucket.
	want := 0.001 + (0.01-0.001)*25/40
	if got := h.quantile(0.75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("p75 = %v, want %v", got, want)
	}
}

// TestParseExemplarLine pins the exemplar-suffix parsing the stage
// table's trace links come from. A propagated trace ID is shown as it
// was sent, runs of blanks and tabs included — an operator pastes it
// into /debug/traces?id=, where a respelled ID finds nothing.
func TestParseExemplarLine(t *testing.T) {
	for _, traceID := range []string{"req-00000042", "a  b\tc"} {
		reg := obs.NewRegistry()
		reg.HistogramVec("shield_stage_seconds", "Write-path stage latency.", obs.LatencyBuckets(), "stage").
			With("group_commit.fsync").ObserveTrace(0.0015, traceID)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if problems := obs.LintExposition(b.String()); len(problems) != 0 {
			t.Fatalf("trace %q: the exposition does not lint: %v", traceID, problems)
		}
		series := parseExposition(b.String(), time.Now()).histograms("shield_stage_seconds")
		if len(series) != 1 || series[0].labels["stage"] != "group_commit.fsync" || series[0].count != 1 {
			t.Fatalf("trace %q: parsed %+v", traceID, series)
		}
		if got := series[0].tailExemplar(); got != traceID {
			t.Fatalf("tail exemplar %q, want %q", got, traceID)
		}
	}
	snap := parseExposition(expositionFrame(300), time.Now())
	series := snap.hists["shield_stage_seconds"]
	if len(series) != 2 {
		t.Fatalf("parsed %d stage series, want 2", len(series))
	}
}

// TestOnePipelineOverBothTransports: the same writes driven over HTTP
// and over wire into journaled, fsynced markets render the same stage
// rows past the transport's own stages — one pipeline, one vocabulary,
// whichever transport entered the commit stage.
func TestOnePipelineOverBothTransports(t *testing.T) {
	cfg := market.Config{Engine: core.Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 4, MinBid: 1}, Seed: 3}
	transportOnly := map[string]bool{"http.parse": true, "wire.read": true, "decode": true, "ack.flush": true}
	rows := map[string][]string{}
	for _, transport := range []string{"http", "wire"} {
		tel := obs.NewTelemetry()
		jm, _, err := journal.OpenStore(cfg, t.TempDir(), journal.StoreConfig{}, journal.WithFsync(), journal.WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		defer jm.Close()
		var target string
		if transport == "http" {
			srv := httptest.NewServer(httpapi.NewJournaled(jm).WithTelemetry(tel).Routes())
			defer srv.Close()
			target = srv.URL
		} else {
			jm.Instrument(tel)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() { _ = wire.NewServer(jm).WithTelemetry(tel).Serve(l) }()
			target = "wire://" + l.Addr().String()
		}
		c, err := client.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, err := range []error{c.RegisterSeller(ctx, "s"), c.UploadDataset(ctx, "s", "d")} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			buyer := market.BuyerID(fmt.Sprintf("b%d", i))
			if _, err := c.RegisterBuyer(ctx, buyer); err != nil {
				t.Fatal(err)
			}
			if _, err := c.SubmitBid(ctx, buyer, "d", 50); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()

		var text, frame strings.Builder
		if err := tel.Registry.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		renderStages(&frame, parseExposition(text.String(), time.Now()))
		for _, line := range strings.Split(frame.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 0 && !transportOnly[f[0]] {
				rows[transport] = append(rows[transport], f[0])
			}
		}
	}
	want := []string{"group_commit.queue_wait", "apply", "group_commit.append", "group_commit.fsync", "publish"}
	for transport, got := range rows {
		if !slices.Equal(got, want) {
			t.Errorf("%s-driven stage rows %v, want %v", transport, got, want)
		}
	}
}
