package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExemplarExposition pins the OpenMetrics-style exemplar suffix:
// the last sampled observation's trace ID rides the owning _bucket
// line and the whole output still lints clean.
func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("shield_test_seconds", "Test latency.", []float64{0.001, 1})
	h.ObserveTrace(0.0005, "req-00000001")
	h.ObserveTrace(500, "req-00000002") // +Inf overflow bucket
	h.Observe(0.5)                      // unsampled: no exemplar on the middle bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantFirst := `shield_test_seconds_bucket{le="0.001"} 1 # {trace_id="req-00000001"} 0.0005 `
	if !strings.Contains(out, wantFirst) {
		t.Fatalf("missing first-bucket exemplar %q in:\n%s", wantFirst, out)
	}
	wantInf := `shield_test_seconds_bucket{le="+Inf"} 3 # {trace_id="req-00000002"} 500 `
	if !strings.Contains(out, wantInf) {
		t.Fatalf("missing +Inf exemplar %q in:\n%s", wantInf, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `le="1"`) && strings.Contains(line, "#") {
			t.Fatalf("unsampled bucket grew an exemplar: %s", line)
		}
	}
	if problems := LintExposition(out); len(problems) != 0 {
		t.Fatalf("exemplar output fails lint: %v", problems)
	}
}

func TestLintAcceptsFullRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("shield_ops_total", "Ops.", "op")
	c.With("bid").Add(3)
	c.With("tick").Inc()
	r.Gauge("shield_depth", "Depth.").Set(2)
	h := r.HistogramVec("shield_lat_seconds", "Latency.", LatencyBuckets(), "op", "status")
	h.With("bid", "ok").ObserveTrace(0.004, "req-0000000a")
	h.With("bid", "error").Observe(1.5)
	r.Collect("shield_books_units", "Books.", KindCounter, func(emit func(float64, ...string)) {
		emit(10, "dataset", "d1")
		emit(12, "dataset", "d2")
	})
	RegisterRuntimeMetrics(r)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(b.String()); len(problems) != 0 {
		t.Fatalf("clean registry fails lint: %v", problems)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"naming convention",
			"# HELP bad_name x\n# TYPE bad_name counter\nbad_name 1\n",
			"naming convention",
		},
		{
			"duplicate series",
			"# HELP shield_a x\n# TYPE shield_a counter\nshield_a{op=\"a\"} 1\nshield_a{op=\"a\"} 2\n",
			"duplicate series",
		},
		{
			"non-contiguous family",
			"# HELP shield_a x\n# TYPE shield_a counter\nshield_a 1\n" +
				"# HELP shield_b x\n# TYPE shield_b counter\nshield_b 1\n" +
				"# HELP shield_a x\n# TYPE shield_a counter\n",
			"reopened",
		},
		{
			"decreasing cumulative buckets",
			"# HELP shield_h x\n# TYPE shield_h histogram\n" +
				"shield_h_bucket{le=\"1\"} 5\nshield_h_bucket{le=\"2\"} 3\nshield_h_bucket{le=\"+Inf\"} 5\n" +
				"shield_h_sum 2\nshield_h_count 5\n",
			"decreases",
		},
		{
			"+Inf disagrees with count",
			"# HELP shield_h x\n# TYPE shield_h histogram\n" +
				"shield_h_bucket{le=\"1\"} 5\nshield_h_bucket{le=\"+Inf\"} 5\n" +
				"shield_h_sum 2\nshield_h_count 6\n",
			"+Inf bucket",
		},
		{
			"exemplar outside its bucket",
			"# HELP shield_h x\n# TYPE shield_h histogram\n" +
				"shield_h_bucket{le=\"1\"} 5 # {trace_id=\"req-1\"} 3 1000.000\n" +
				"shield_h_bucket{le=\"+Inf\"} 5\nshield_h_sum 2\nshield_h_count 5\n",
			"exceeds its bucket",
		},
		{
			"exemplar on a counter",
			"# HELP shield_c x\n# TYPE shield_c counter\n" +
				"shield_c 5 # {trace_id=\"req-1\"} 3 1000.000\n",
			"non-bucket",
		},
		{
			"unparseable value",
			"# HELP shield_c x\n# TYPE shield_c counter\nshield_c banana\n",
			"does not parse",
		},
		{
			"sample without metadata",
			"shield_orphan 1\n",
			"HELP/TYPE",
		},
	}
	for _, tc := range cases {
		problems := LintExposition(tc.text)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: want a problem containing %q, got %v", tc.name, tc.want, problems)
		}
	}
}

func TestLintExemplarParsesEscapedTraceID(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("shield_test_seconds", "x", []float64{1})
	h.ObserveTrace(0.5, `id-with-"quote"`)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(b.String()); len(problems) != 0 {
		t.Fatalf("escaped exemplar fails lint: %v", problems)
	}
}

func TestExemplarTimestampIsObservationTime(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("shield_test_seconds", "x", []float64{1})
	before := time.Now().Add(-time.Second)
	h.ObserveTrace(0.5, "req-1")
	after := time.Now().Add(time.Second)
	for _, line := range exposition(t, r) {
		if !strings.Contains(line, ` # {trace_id="req-1"} `) {
			continue
		}
		fields := strings.Fields(line)
		ts, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if at := time.UnixMilli(int64(ts * 1000)); err != nil || at.Before(before) || at.After(after) {
			t.Fatalf("exemplar timestamp implausible: %s", line)
		}
		return
	}
	t.Fatal("no exemplar on /metrics")
}

// exposition is r's /metrics text, line by line.
func exposition(t *testing.T, r *Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Split(b.String(), "\n")
}
