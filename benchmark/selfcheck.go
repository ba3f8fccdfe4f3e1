package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the evidence behind the bounds: it runs one workload as
// two interleaved sets — A B A B ..., n runs each, every run a fresh
// process of this same binary on a seed of its own — and prints, per
// end-to-end metric, each set's median and quartiles, the spread of
// each set (inter-quartile distance over median), how much worse set
// B's median is than set A's, and whether both stay inside the
// metric's bound. Identical code on both sides: whatever they disagree
// by is what the host does to a measurement.
func selfCheck(w io.Writer, workload string, seed uint64, seconds, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs BENCHMARK.json in the current directory: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		res, err := runChild(self, workload, seed+uint64(i), seconds)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run %d (seed %d): correct=%v failed=%d", i+1, seed+uint64(i), res.Correct, res.Failed)
		}
		for name, m := range res.Metrics {
			sets[i%2][name] = append(sets[i%2][name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "selfcheck %s: run %d of %d done\n", workload, i+1, 2*n)
	}

	fmt.Fprintf(w, "selfcheck: workload=%s seconds=%d runs=2x%d seeds=%d..%d\n", workload, seconds, n, seed, seed+uint64(2*n-1))
	fmt.Fprintf(w, "| metric | unit | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | B worse than A | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	allOK := true
	for _, m := range spec.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) != n || len(b) != n {
			return fmt.Errorf("metric %s: %d and %d values for %d runs a set", m.Name, len(a), len(b), n)
		}
		qa, qb := quartiles(a), quartiles(b)
		spreadA, spreadB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
		worse := (qb[1] - qa[1]) / qa[1]
		if m.Better == "higher" {
			worse = -worse
		}
		// setup_s is gated on its medians only: the driver does not bound
		// its spread.
		ok := worse <= m.Bound && (m.Name == "setup_s" || (spreadA <= m.Bound && spreadB <= m.Bound))
		allOK = allOK && ok
		fmt.Fprintf(w, "| %s | %s | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
			m.Name, m.Unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], 100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict(ok))
	}
	if !allOK {
		return fmt.Errorf("two sets of the same code disagree by more than a bound")
	}
	return nil
}

// runChild runs one untraced run in a child process and parses the
// result line.
func runChild(self, workload string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), which is what the driver computes.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
