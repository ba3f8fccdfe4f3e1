package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// declared is the part of BENCHMARK.json the tests hold the runner to.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a := newPlan(7, 256, 2, 3000, 0.9).hash()
	if b := newPlan(7, 256, 2, 3000, 0.9).hash(); a != b {
		t.Fatalf("one seed, two plans: %x and %x", a, b)
	}
	if c := newPlan(8, 256, 2, 3000, 0.9).hash(); a == c {
		t.Fatalf("seeds 7 and 8 generated the same plan %x", a)
	}
}

// sameMetrics fails unless got is exactly the declared names and units.
func sameMetrics(t *testing.T, what string, got []Metric, want []declaredMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", what, m.Name)
		}
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		unit, ok := units[w.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, w.Name, unit, w.Unit)
		}
		delete(units, w.Name)
	}
	for name := range units {
		t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
	}
}

// miniature runs a workload at 1 % of the size BENCHMARK.json runs it.
func miniature(t *testing.T, workload string, trace bool) *Report {
	t.Helper()
	rep, err := Run(Config{Workload: workload, Seed: 3, Seconds: 0.12, Trace: trace, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d checks=%q", workload, rep.Correct, rep.Failed, rep.Checks)
	}
	return rep
}

func TestEveryWorkloadEmitsTheDeclaredEndToEndMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the runner has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := miniature(t, w.Name, false)
			sameMetrics(t, w.Name, rep.EndToEnd, d.EndToEnd)
			for _, m := range rep.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// The traced part — ladder, probes, span file — is shared by all four
// workloads, and their own per-layer metrics come from one function, so
// one traced miniature covers the declared per-layer set.
func TestTracedRunEmitsTheDeclaredPerLayerMetricsAndSpans(t *testing.T) {
	d := readDeclared(t)
	rep := miniature(t, "wire_bid_durable", true)
	sameMetrics(t, "per-layer", rep.PerLayer, d.PerLayer)

	values := map[string]float64{}
	for _, m := range rep.PerLayer {
		values[m.Name] = m.Value
	}
	if values["ladder.parity"] != 1 {
		t.Errorf("ladder.parity = %v, want 1", values["ladder.parity"])
	}
	// market.shell_us is left out: a microsecond of self time is inside
	// timer noise at a miniature's four blocks.
	for _, name := range []string{"command.apply_us", "journal.commit_us", "wire.transport_us", "httpapi.transport_us"} {
		if values[name] < 0 {
			t.Errorf("ladder self time %s = %v at the median, want >= 0", name, values[name])
		}
	}

	raw, err := os.ReadFile(rep.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("span file holds no spans")
	}
	ids := map[int]bool{}
	for _, s := range file.Spans {
		ids[s.ID] = true
	}
	for _, s := range file.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d (%s) has parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31}
	if got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestFastestThird(t *testing.T) {
	// Five rounds: the fastest two; the slow ones do not matter.
	if got := fastestThird([]float64{9, 2, 100, 4, 50}); got != 3 {
		t.Fatalf("fastestThird = %v, want 3", got)
	}
	if got := fastestThird([]float64{7}); got != 7 {
		t.Fatalf("fastestThird of one = %v, want 7", got)
	}
}
