package obs

import (
	"bufio"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionConformance validates WritePrometheus output against
// the rules a Prometheus scraper enforces: HELP and TYPE exactly once
// per family, every sample inside its family's contiguous block, no
// duplicate series, parseable values.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_requests_total", "Requests served.", "route", "status")
	c.With("/v1/bids", "200").Add(3)
	c.With("/v1/bids", "404").Inc()
	c.With("/v1/tick", "200").Inc()
	g := r.Gauge("test_queue_depth", "Current queue depth.")
	g.Set(7)
	h := r.HistogramVec("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "route")
	h.With("/v1/bids").Observe(0.05)
	h.With("/v1/bids").Observe(5)
	r.Collect("test_dataset_bids_total", "Bids per dataset.", KindCounter, func(emit func(float64, ...string)) {
		emit(4, "dataset", "alpha")
		emit(2, "dataset", "beta")
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var (
		current string
		helped  = map[string]bool{}
		typed   = map[string]bool{}
		closed  = map[string]bool{}
		series  = map[string]bool{}
		scanner = bufio.NewScanner(strings.NewReader(out))
	)
	base := func(sample string) string {
		name := strings.FieldsFunc(sample, func(r rune) bool { return r == '{' || r == ' ' })[0]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suffix); fam != name && (helped[fam] || typed[fam]) {
				return fam
			}
		}
		return name
	}
	line := 0
	for scanner.Scan() {
		text := scanner.Text()
		line++
		switch {
		case strings.HasPrefix(text, "# HELP "):
			name := strings.Fields(text)[2]
			if helped[name] {
				t.Errorf("line %d: duplicate HELP for %s", line, name)
			}
			helped[name] = true
			if current != "" && current != name {
				closed[current] = true
			}
			current = name
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text)
			if fields[2] != current {
				t.Errorf("line %d: TYPE %s outside its family block (%s)", line, fields[2], current)
			}
			if typed[fields[2]] {
				t.Errorf("line %d: duplicate TYPE for %s", line, fields[2])
			}
			typed[fields[2]] = true
		case text == "" || strings.HasPrefix(text, "#"):
		default:
			name := base(text)
			if name != current {
				t.Errorf("line %d: sample %q outside contiguous block of %s", line, text, name)
			}
			key := strings.SplitN(text, " ", 2)[0]
			if series[key] {
				t.Errorf("line %d: duplicate series %s", line, key)
			}
			series[key] = true
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(text[len(key):]), "%g", &v); err != nil {
				t.Errorf("line %d: unparseable value in %q", line, text)
			}
		}
	}

	for _, want := range []string{
		`test_requests_total{route="/v1/bids",status="200"} 3`,
		`test_queue_depth 7`,
		`test_dataset_bids_total{dataset="alpha"} 4`,
		`test_latency_seconds_bucket{route="/v1/bids",le="0.1"} 1`,
		`test_latency_seconds_bucket{route="/v1/bids",le="+Inf"} 2`,
		`test_latency_seconds_count{route="/v1/bids"} 2`,
		"# TYPE test_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLabelEscaping pins the three escapes the exposition format
// requires inside quoted label values: backslash, double quote and
// newline.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_escapes_total", "Escaping.", "v")
	c.With(`back\slash`).Inc()
	c.With(`quo"te`).Inc()
	c.With("new\nline").Inc()
	r.Collect("test_collector_escapes_total", "Escaping via collector.", KindCounter,
		func(emit func(float64, ...string)) {
			emit(1, "v", "a\\b\"c\nd")
		})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_escapes_total{v="back\\slash"} 1`,
		`test_escapes_total{v="quo\"te"} 1`,
		`test_escapes_total{v="new\nline"} 1`,
		`test_collector_escapes_total{v="a\\b\"c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") != strings.Count(out, "\n") || strings.Contains(out, "line\"}") && !strings.Contains(out, `new\nline`) {
		t.Errorf("raw newline leaked into a label value:\n%s", out)
	}
}

// TestHistogramBucketMath checks bucket assignment (le is inclusive),
// cumulative counts, sum, count, and overflow.
func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); math.Abs(got-16) > 1e-12 {
		t.Fatalf("sum = %g, want 16", got)
	}
	cum, count, _ := h.snapshot()
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=4: +{3}; +Inf: +{8}.
	want := []uint64{2, 4, 5, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if count != 6 {
		t.Errorf("snapshot count = %d, want 6", count)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="2"} 4`,
		`test_h_bucket{le="4"} 5`,
		`test_h_bucket{le="+Inf"} 6`,
		`test_h_sum 16`,
		`test_h_count 6`,
	} {
		if !strings.Contains(b.String(), wantLine) {
			t.Errorf("missing %q:\n%s", wantLine, b.String())
		}
	}
}

// TestConcurrentUpdatesDuringScrape hammers every instrument type from
// many goroutines while scraping — run under -race this is the
// registry's data-race proof; the final scrape also checks no updates
// were lost.
func TestConcurrentUpdatesDuringScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c", "c")
	g := r.Gauge("test_g", "g")
	h := r.Histogram("test_hh", "h", LatencyBuckets())
	vec := r.CounterVec("test_vec", "v", "worker")

	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := vec.With(fmt.Sprint(w))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-6)
				mine.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %g, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestCollectorPanicIsContained proves one broken collector cannot take
// down the scrape: the rest of the families still emit and the error
// hook fires.
func TestCollectorPanicIsContained(t *testing.T) {
	r := NewRegistry()
	var failures []string
	r.OnCollectError(func(fam string) { failures = append(failures, fam) })
	r.Collect("test_bad", "panics", KindGauge, func(func(float64, ...string)) {
		panic("scrape race")
	})
	c := r.Counter("test_after", "after the bad one")
	c.Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_after 1") {
		t.Fatalf("families after a panicking collector were lost:\n%s", b.String())
	}
	if len(failures) != 1 || failures[0] != "test_bad" {
		t.Fatalf("error hook calls = %v", failures)
	}
}

// TestDuplicateRegistrationPanics pins the family-name uniqueness rule.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family registration did not panic")
		}
	}()
	r.Gauge("test_dup", "second")
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_c", "c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_h", "h", LatencyBuckets())
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3e-5)
		}
	})
}
