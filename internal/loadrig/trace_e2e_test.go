package loadrig

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/obs"
)

// TestTraceExemplarLookupE2E is the acceptance path for full-pipeline
// causal tracing: boot a traced, durable (fsync) rig,
// drive wire bids through it, scrape /metrics, take the trace ID riding
// a shield_stage_seconds bucket exemplar for the group_commit.fsync
// stage, resolve that ID via /debug/traces?id=, and see the op's full
// stage breakdown — including the fsync the exemplar pointed at. This
// is the operator's debugging loop (tail bucket → exemplar → trace)
// exercised end to end over real sockets.
func TestTraceExemplarLookupE2E(t *testing.T) {
	rig, err := StartRig(RigConfig{
		Datasets:    8,
		Buyers:      32,
		Fsync:       true,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rig.Close(); err != nil {
			t.Errorf("rig close: %v", err)
		}
	}()

	// 200 scheduled ops (plus warm-up pings) stay under the tracer's
	// 256-slot ring, so the trace behind any exemplar is still
	// resolvable when the run ends.
	rep, err := Run(rig, Scenario{
		Transport: TransportWire,
		Clients:   16,
		Rate:      2000,
		Ops:       200,
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The server-side stage breakdown made it into the report and onto
	// the SLO surface.
	fsync, ok := rep.ServerStages["bid.fsync"]
	if !ok || fsync.Count == 0 {
		t.Fatalf("report has no bid.fsync stage breakdown: %+v", rep.ServerStages)
	}
	slo, err := ParseSLO("bid.fsync.p99<10s,bid.apply.p99<10s")
	if err != nil {
		t.Fatal(err)
	}
	if v := slo.Evaluate(rep); len(v) != 0 {
		t.Fatalf("generous stage SLO violated:\n%s\n%v", rep, v)
	}

	// Scrape /metrics and pull the exemplar off a group_commit.fsync
	// bucket — the "why is my tail bucket populated" entry point.
	resp, err := http.Get(rig.HTTPAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(raw)
	if problems := obs.LintExposition(exposition); len(problems) != 0 {
		t.Fatalf("/metrics exposition fails lint under load: %v", problems)
	}
	re := regexp.MustCompile(`shield_stage_seconds_bucket\{stage="group_commit\.fsync",le="[^"]+"\} \d+ # \{trace_id="([^"]+)"\}`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("no exemplar on any group_commit.fsync bucket in:\n%s", exposition)
	}
	traceID := m[1]

	// Resolve the exemplar's trace ID to its stage breakdown. The
	// server finishes a trace just after flushing the response, so give
	// the last op's ring insertion a moment.
	var out struct {
		Trace struct {
			ID    string `json:"id"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"trace"`
	}
	found := false
	for i := 0; i < 100 && !found; i++ {
		resp, err := http.Get(rig.HTTPAddr + "/debug/traces?id=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			found = true
		}
		resp.Body.Close()
		if !found {
			time.Sleep(time.Millisecond)
		}
	}
	if !found {
		t.Fatalf("exemplar trace %s not resolvable via /debug/traces", traceID)
	}
	if out.Trace.ID != traceID {
		t.Fatalf("lookup returned trace %q, want %q", out.Trace.ID, traceID)
	}
	spans := map[string]bool{}
	for _, s := range out.Trace.Spans {
		spans[s.Name] = true
	}
	for _, want := range []string{"wire.read", "group_commit.fsync"} {
		if !spans[want] {
			t.Fatalf("exemplar trace spans %v missing %q — not a full stage breakdown", out.Trace.Spans, want)
		}
	}
}
