package torture

import (
	"reflect"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/core"
)

// small returns a config sized for unit tests: enough ops to cross many
// epoch boundaries, checkpoints frequent enough to exercise the
// whole-state comparisons several times.
func small(seed uint64, ops int) Config {
	return Config{Seed: seed, Ops: ops, CheckEvery: ops / 4}
}

func TestDifferentialSmallRun(t *testing.T) {
	rep, err := Run(small(1, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints < 4 {
		t.Errorf("expected >= 4 checkpoints, got %d", rep.Checkpoints)
	}
	if rep.Allocations == 0 {
		t.Error("no allocations: workload never sold anything")
	}
	if rep.Revenue <= 0 {
		t.Errorf("revenue %s, want positive", rep.Revenue)
	}
	if rep.Rejections == 0 {
		t.Error("no rejections: chaos ops never exercised the error paths")
	}
	// Every steady-state op kind must appear in a run this long.
	for _, kind := range []OpKind{OpBid, OpBatch, OpTick, OpUpload, OpCompose, OpWithdraw, OpQuery, OpSettle} {
		if rep.OpCounts[kind.String()] == 0 {
			t.Errorf("op kind %s never generated", kind)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(small(7, 2500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(7, 2500))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different reports:\n%+v\n%+v", a, b)
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, err := Run(small(1, 1500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(2, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.OpCounts, b.OpCounts) && a.Revenue == b.Revenue {
		t.Error("different seeds produced identical histories")
	}
}

func TestWaitStableStrategy(t *testing.T) {
	cfg := small(3, 2000)
	cfg.Engine = DefaultEngine()
	cfg.Engine.Wait = core.WaitStable
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMutationCanary proves the differential actually discriminates
// now that the reference shares Apply with the live market: a
// deliberately broken price update seeded into the LIVE replicas'
// engines only (the reference stays clean) must be caught, with a
// reproduction line in the failure.
func TestMutationCanary(t *testing.T) {
	cfg := small(1, 2000)
	cfg.canaryPerturb = func(p float64) float64 { return p * 1.02 }

	_, err := Run(cfg)
	if err == nil {
		t.Fatal("perturbed engine prices were not detected")
	}
	var f *Failure
	if !asFailure(err, &f) {
		t.Fatalf("expected *Failure, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "repro: shieldstorm -seed 1 -ops 2000") {
		t.Errorf("failure lacks repro line: %v", err)
	}
}

func asFailure(err error, out **Failure) bool {
	f, ok := err.(*Failure)
	if ok {
		*out = f
	}
	return ok
}

func TestFailureReproLine(t *testing.T) {
	f := &Failure{Seed: 42, Ops: 100000, OpIndex: 7, OpDesc: "bid b01 on d002 at 12.0000", Reason: "boom"}
	got := f.Error()
	for _, want := range []string{
		"torture failure at op 7 (bid b01 on d002 at 12.0000): boom",
		"repro: shieldstorm -seed 42 -ops 100000",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("failure message %q missing %q", got, want)
		}
	}
}

func TestRegridRejected(t *testing.T) {
	cfg := small(1, 100)
	cfg.Engine = DefaultEngine()
	cfg.Engine.RegridEvery = 4
	if _, err := Run(cfg); err == nil {
		t.Fatal("RegridEvery accepted; the bid and wait invariants read the fixed candidate grid")
	}
}
