package httpapi

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsExpositionFormat validates the /metrics output against the
// Prometheus text exposition format rules a scraper actually enforces:
// every sample belongs to a family announced by HELP and TYPE lines,
// all samples of a family are contiguous (no interleaving), no family
// is announced twice, and no series repeats.
func TestMetricsExpositionFormat(t *testing.T) {
	ts := testServer(t)
	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	for _, d := range []string{"alpha", "beta", "gamma"} {
		post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": d})
	}
	post(t, ts, "/v1/buyers", map[string]string{"id": "b"})
	// Traffic on several datasets so per-dataset families have multiple
	// samples — that is what exposed the interleaving bug.
	for _, d := range []string{"alpha", "beta", "gamma"} {
		post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": d, "amount": 150.0})
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	validateExposition(t, resp.Body)
}

func validateExposition(t *testing.T, r io.Reader) {
	t.Helper()
	var (
		current  string // family currently open (after HELP/TYPE)
		helped   = map[string]bool{}
		typed    = map[string]bool{}
		closed   = map[string]bool{} // families whose sample block ended
		series   = map[string]bool{}
		samples  = map[string]int{}
		suffixed = map[string]string{} // histogram sample name -> base family
		scanner  = bufio.NewScanner(r)
		metricOf = func(sample string) string {
			name := strings.FieldsFunc(sample, func(r rune) bool { return r == '{' || r == ' ' })[0]
			if base, ok := suffixed[name]; ok {
				return base
			}
			return name
		}
		lineCount int
	)
	for scanner.Scan() {
		line := scanner.Text()
		lineCount++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			if helped[name] {
				t.Errorf("line %d: duplicate HELP for %s", lineCount, name)
			}
			helped[name] = true
			if current != "" && current != name {
				closed[current] = true
			}
			current = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			name, kind := fields[2], fields[3]
			if name != current {
				t.Errorf("line %d: TYPE %s does not follow its HELP (current family %s)", lineCount, name, current)
			}
			if typed[name] {
				t.Errorf("line %d: duplicate TYPE for %s", lineCount, name)
			}
			typed[name] = true
			switch kind {
			case "counter", "gauge":
			case "histogram":
				// Histogram samples carry suffixed names that belong to
				// the base family's contiguous block.
				suffixed[name+"_bucket"] = name
				suffixed[name+"_sum"] = name
				suffixed[name+"_count"] = name
			default:
				t.Errorf("line %d: unexpected metric type %q", lineCount, kind)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := metricOf(line)
		if name != current {
			if closed[name] {
				t.Errorf("line %d: sample for %s outside its contiguous block (family interleaving)", lineCount, name)
			} else {
				t.Errorf("line %d: sample for %s before its HELP/TYPE header", lineCount, name)
			}
			continue
		}
		if !typed[name] {
			t.Errorf("line %d: sample for %s before TYPE", lineCount, name)
		}
		// The series key is name{labels}; label values may contain
		// spaces (route="POST /v1/bids"), so split after the closing
		// brace rather than at the first space.
		key := strings.SplitN(line, " ", 2)[0]
		if brace := strings.LastIndex(line, "}"); strings.Contains(key, "{") && brace >= 0 {
			key = line[:brace+1]
		}
		if series[key] {
			t.Errorf("line %d: duplicate series %s", lineCount, key)
		}
		series[key] = true
		samples[name]++
		var v float64
		rest := strings.TrimSpace(line[len(key):])
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Errorf("line %d: unparseable sample value %q", lineCount, rest)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	// Every announced family carries at least one sample, and the
	// families the dashboard relies on are present.
	for name := range helped {
		if samples[name] == 0 {
			t.Errorf("family %s announced but has no samples", name)
		}
	}
	for _, want := range []string{
		"shield_market_revenue_units",
		"shield_dataset_bids_total",
		"shield_dataset_posting_price",
		"shield_stage_seconds",
		"shield_http_request_seconds",
		"shield_metrics_scrape_errors_total",
	} {
		if !helped[want] || !typed[want] {
			t.Errorf("family %s missing HELP/TYPE", want)
		}
	}
	if samples["shield_dataset_bids_total"] != 3 {
		t.Errorf("shield_dataset_bids_total samples = %d, want 3", samples["shield_dataset_bids_total"])
	}
}
