package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/timeseries"
)

// gridSpecs is a sweep with uneven Series, truthful and windowed
// strategic points. The windowed strategic point has siblings that
// share its draws (another beta, a floor above beta*v, KeepWonBids),
// listed after a point of another group, and one that must not: the
// same point at another horizon.
func gridSpecs() []Spec {
	truthful := testSpec()
	truthful.Series = 1
	strategic := testSpec()
	strategic.Strategic = timeseries.StrategicConfig{PCT: 0.5, Beta: 0.25, Horizon: 4, Floor: 1}
	strategic.Series = 3
	strategic.Window = 250
	paper := strategic
	paper.Strategic.PCT = 0.9
	paper.Series = 0 // the paper's 100
	beta, floor, keep, horizon := strategic, strategic, strategic, strategic
	beta.Strategic.Beta = 0.6
	floor.Strategic.Floor = 40
	keep.KeepWonBids = true
	horizon.Strategic.Horizon = 2
	return []Spec{truthful, strategic, paper, beta, floor, keep, horizon}
}

func gridFactories() map[string]PricerFactory {
	return map[string]PricerFactory{
		"mw":     EngineFactory(testEngineConfig()),
		"opt":    OptFactory(),
		"avg":    EpochSummaryFactory(8, auction.AvgSummary, 100),
		"random": RuleFactory(testEngineConfig(), core.DrawRandom),
	}
}

// atGOMAXPROCS runs f with GOMAXPROCS set to n and restores it.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestRunGridIsTheSerialSweep(t *testing.T) {
	specs, factories := gridSpecs(), gridFactories()
	want := make([]map[string][]Result, len(specs))
	atGOMAXPROCS(1, func() {
		for i, spec := range specs {
			var err error
			if want[i], err = Run(spec, factories); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i, n := range []int{1, 3, 100, 3, 3, 3, 3} {
		for name, rs := range want[i] {
			if len(rs) != n {
				t.Fatalf("spec %d %s: %d results, want %d", i, name, len(rs), n)
			}
		}
	}
	for _, procs := range []int{1, 2, 3, 8} {
		atGOMAXPROCS(procs, func() {
			got, err := RunGrid(specs, factories)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d: the grid differs from one serial Run per spec", procs)
			}
		})
	}
}

// TestWorkerAllocatesOnlyWhatFactoriesBuild holds a worker's later
// units to the pricers their factories build: once its buffers have
// grown to the largest series, drawing, rebidding and replaying a group
// allocate nothing of their own.
func TestWorkerAllocatesOnlyWhatFactoriesBuild(t *testing.T) {
	specs, group := gridSpecs(), []int{1, 3, 4, 5} // strategic and its siblings
	var fixed Pricer = StreamPricerAdapter{P: auction.FixedPricer{P: 50}}
	factories := map[string]PricerFactory{
		"mw":    EngineFactory(testEngineConfig()),
		"opt":   OptFactory(),
		"fixed": func(uint64, []float64) Pricer { return fixed },
	}
	out, err := RunGrid(specs, factories)
	if err != nil {
		t.Fatal(err)
	}
	hindsight := []float64{20, 80, 140}
	var built float64
	for name, mk := range factories {
		n := testing.AllocsPerRun(20, func() { mk(1, hindsight) })
		t.Logf("%s builds with %v allocations", name, n)
		built += n
	}
	var w worker
	for s := range 3 {
		w.run(specs, group, s, factories, out)
	}
	s := 0
	got := testing.AllocsPerRun(30, func() {
		w.run(specs, group, s%3, factories, out)
		s++
	})
	if want := float64(len(group)) * built; got != want {
		t.Fatalf("a unit of %d specs allocates %v times, want %v: what its factories build", len(group), got, want)
	}
}

func TestRunGridReportsTheSerialError(t *testing.T) {
	// Five pairs, all claimed at once at GOMAXPROCS 8; pairs 1, 2 and 4
	// fail, each with its own text.
	ok := testSpec()
	ok.Series = 1
	badPCT := testSpec()
	badPCT.Strategic.PCT = 2
	badPCT.Series = 2
	badHorizon := ok
	badHorizon.Strategic.Horizon = 0
	specs := []Spec{ok, badPCT, ok, badHorizon}
	factories := map[string]PricerFactory{"opt": OptFactory()}
	_, serial := Run(specs[1], factories)
	if serial == nil {
		t.Fatal("PCT 2 accepted")
	}
	for _, procs := range []int{1, 2, 3, 8} {
		atGOMAXPROCS(procs, func() {
			for i := 0; i < 100; i++ {
				out, err := RunGrid(specs, factories)
				if err == nil || err.Error() != serial.Error() {
					t.Fatalf("GOMAXPROCS %d, iteration %d: err = %v, want spec 1 series 0's: %v", procs, i, err, serial)
				}
				if out != nil {
					t.Fatalf("GOMAXPROCS %d: results returned with an error", procs)
				}
			}
		})
	}
}

func TestRunGridLeavesNoGoroutines(t *testing.T) {
	atGOMAXPROCS(8, func() {
		before := settledGoroutines()
		if _, err := RunGrid(gridSpecs(), gridFactories()); err != nil {
			t.Fatal(err)
		}
		// A worker is counted until it has left its deferred Done, a
		// moment after the Wait it released returns.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%d goroutines before RunGrid, %d after", before, after)
		}
	})
}

// settledGoroutines reads runtime.NumGoroutine once it has held still
// for 20 ms (giving up after 2 s), so a worker an earlier test's RunGrid
// released, still leaving its deferred Done, is not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for still := time.Now(); time.Since(still) < 20*time.Millisecond && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return n
}

func TestRunGridOfNothing(t *testing.T) {
	out, err := RunGrid(nil, gridFactories())
	if err != nil || len(out) != 0 {
		t.Fatalf("RunGrid(nil) = %v, %v", out, err)
	}
}

func TestReplaySparseBuyerIDs(t *testing.T) {
	p := StreamPricerAdapter{P: auction.FixedPricer{P: 50}}
	// Buyers 0 and 100000 win at their first bid and are skipped after;
	// buyer 7 loses twice and wins with its third.
	stream := []timeseries.Bid{
		{Buyer: 100000, Valuation: 60, Amount: 60},
		{Buyer: 7, Valuation: 90, Amount: 10},
		{Buyer: 0, Valuation: 70, Amount: 70},
		{Buyer: 100000, Valuation: 60, Amount: 60, Final: true},
		{Buyer: 7, Valuation: 90, Amount: 20},
		{Buyer: 0, Valuation: 70, Amount: 70, Final: true},
		{Buyer: 7, Valuation: 90, Amount: 90, Final: true},
	}
	want := Result{Revenue: 150, Surplus: 10 + 20 + 40, Allocations: 3, Bids: 5}
	if got := Replay(p, stream, true); got != want {
		t.Fatalf("Replay = %+v, want %+v", got, want)
	}
	if got := Replay(p, nil, true); got != (Result{}) {
		t.Fatalf("Replay of an empty stream = %+v", got)
	}
}

func TestReplayAllocatesOnce(t *testing.T) {
	var p Pricer = StreamPricerAdapter{P: auction.FixedPricer{P: 50}}
	stream := make([]timeseries.Bid, 250)
	for i := range stream {
		stream[i] = timeseries.Bid{Buyer: i / 2, Valuation: 100, Amount: float64(i), Final: i%2 == 1}
	}
	if n := testing.AllocsPerRun(100, func() { Replay(p, stream, true) }); n != 1 {
		t.Fatalf("Replay allocates %v times per run, want 1 (the winners slice)", n)
	}
}
