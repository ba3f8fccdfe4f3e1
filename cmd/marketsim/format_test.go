package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/experiments"
)

// quick keeps formatter tests fast; output structure is scale-invariant.
func quickOpts() experiments.Options {
	return experiments.Options{Series: 6, Panel: 50, Seed: 2022}
}

func TestEveryExperimentFormats(t *testing.T) {
	dir := t.TempDir()
	for _, e := range experimentList() {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var sb strings.Builder
			csv := filepath.Join(dir, e.id+".csv")
			if err := e.run(quickOpts(), csv, &sb); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			out := sb.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced no output", e.id)
			}
			// Every experiment renders at least one table separator.
			if !strings.Contains(out, "--") {
				t.Errorf("%s output has no table:\n%s", e.id, out)
			}
			// The CSV sidecar exists and has a header plus data.
			data, err := os.ReadFile(csv)
			if err != nil {
				t.Fatalf("%s csv: %v", e.id, err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 2 {
				t.Errorf("%s csv has %d lines", e.id, len(lines))
			}
			if !strings.Contains(lines[0], ",") {
				t.Errorf("%s csv header %q", e.id, lines[0])
			}
		})
	}
}

// A negative scale is refused by every experiment, with the one error
// experiments.Options names — not rendered as -0, NaN or "-3 sessions".
func TestEveryExperimentRefusesNegativeOptions(t *testing.T) {
	for _, e := range experimentList() {
		for _, o := range []experiments.Options{{Series: -3}, {Panel: -3}, {Series: -1, Panel: -1}} {
			var sb strings.Builder
			err := e.run(o, "", &sb)
			if !errors.Is(err, experiments.ErrNegativeOption) {
				t.Errorf("%s %+v: err = %v, want ErrNegativeOption", e.id, o, err)
			}
			if sb.Len() != 0 {
				t.Errorf("%s %+v: printed %q before refusing", e.id, o, sb.String())
			}
		}
	}
}

// The integration report lists sellers in id order, not map order: run
// to run the bytes are the same.
func TestIntegrationRendersTheSameBytes(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := runIntegration(quickOpts(), "", &sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
			if s1, s2 := strings.Index(first, "balance s1"), strings.Index(first, "balance s2"); s1 < 0 || s2 < s1 {
				t.Fatalf("sellers not in id order:\n%s", first)
			}
		} else if sb.String() != first {
			t.Fatalf("run %d rendered\n%s\nrun 0 rendered\n%s", i, sb.String(), first)
		}
	}
}

func TestExperimentIDsUniqueAndListed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentList() {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.about == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.id)
		}
	}
	for _, want := range []string{
		"table1", "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
		"fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
		"dpablation", "expost", "waitperiod", "interleave",
		"adaptivegrid", "drift", "integration",
	} {
		if !seen[want] {
			t.Errorf("experiment %q missing from list", want)
		}
	}
}

func TestFormattersWithoutCSV(t *testing.T) {
	// Empty csv path must be a no-op, not an error.
	var sb strings.Builder
	if err := runTable1(quickOpts(), "", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "valuation") {
		t.Fatalf("table1 output: %q", sb.String())
	}
}

func TestCSVPathHelper(t *testing.T) {
	if csvPath("", "x") != "" {
		t.Error("empty dir should yield empty path")
	}
	if p := csvPath("out", "fig1"); !strings.Contains(p, "fig1.csv") {
		t.Errorf("csvPath = %q", p)
	}
	if indexOf([]string{"a", "b"}, "b") != 1 || indexOf([]string{"a"}, "z") != 1 {
		t.Error("indexOf broken")
	}
}
