package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this tree's results")

// erase drops an experiment's result type so that the table below can
// hold all of them.
func erase[T any](f func(Options) (T, error)) func(Options) (any, error) {
	return func(o Options) (any, error) { return f(o) }
}

// golden pins every exported experiment bit for bit: the shape tests
// accept any result with the right ordering, so a change to how sweeps
// are scheduled needs this to show it changed no number.
var golden = []struct {
	name string
	run  func(Options) (any, error)
}{
	{"Table1", erase(Table1)},
	{"Fig2a", erase(Fig2a)},
	{"Fig2b", erase(Fig2b)},
	{"Fig2c", erase(Fig2c)},
	{"Fig3a", erase(Fig3a)},
	{"Fig3b", erase(Fig3b)},
	{"Fig3c", erase(Fig3c)},
	{"Fig4a", erase(Fig4a)},
	{"Fig4b", erase(Fig4b)},
	{"Fig4c", erase(Fig4c)},
	{"Fig5a", erase(Fig5a)},
	{"Fig5b", erase(Fig5b)},
	{"Fig5c", erase(Fig5c)},
	{"X1DPAblation", erase(X1DPAblation)},
	{"X2ExPost", erase(X2ExPost)},
	{"X3WaitPeriods", erase(X3WaitPeriods)},
	{"X4Interleaving", erase(X4Interleaving)},
	{"X5AdaptiveGrid", erase(X5AdaptiveGrid)},
	{"X6DriftTracking", erase(X6DriftTracking)},
	{"X7BestResponse", erase(X7BestResponse)},
	{"MarketIntegration", erase(MarketIntegration)},
}

// TestGoldenDigests compares the sha256 of each experiment's
// json.Marshal against testdata/golden.json. `go test -run
// TestGoldenDigests -update` rewrites the file; do that only for a
// change that means to move a number, and say so.
func TestGoldenDigests(t *testing.T) {
	const path = "testdata/golden.json"
	got := make(map[string]string, len(golden))
	for _, g := range golden {
		res, err := g.run(Options{Series: 7, Panel: 10, Seed: 2022})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sum := sha256.Sum256(data)
		got[g.name] = hex.EncodeToString(sum[:])
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s names %d experiments, the test runs %d", path, len(want), len(got))
	}
	for _, g := range golden {
		if got[g.name] != want[g.name] {
			t.Errorf("%s: digest %s, golden %s", g.name, got[g.name], want[g.name])
		}
	}
}
