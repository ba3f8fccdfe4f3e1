package loadrig

import (
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/journal"
)

// TestStoreRigSmoke drives a run against a rig whose journal store has
// an aggressive checkpoint/compaction cadence: the
// commit path rotates segments and compacts under live load, the SLO
// stays evaluable, and the post-run invariant check recovers the store
// from disk (checkpoint + tail segments) byte-identical to live state.
func TestStoreRigSmoke(t *testing.T) {
	rig := startTestRig(t, RigConfig{
		Datasets: 8,
		Buyers:   64,
		StoreConfig: journal.StoreConfig{
			SegmentRecords:  128,
			CheckpointEvery: 300,
		},
	})
	rep, err := Run(rig, Scenario{
		Transport: TransportBoth,
		Clients:   64,
		Rate:      4000,
		Ops:       3000,
		TickEvery: 200,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors in a local store-mode run:\n%s", rep.Errors, rep)
	}

	inv, err := rig.CheckInvariants()
	if err != nil {
		t.Fatalf("invariants after store-mode run: %v", err)
	}
	if !strings.Contains(inv, "checkpointed recovery rebuilds live state") {
		t.Fatalf("invariant summary lacks the store recovery check: %q", inv)
	}

	// The cadence above must actually have exercised rotation and
	// checkpointing during the run, or the test proves nothing.
	sinv := rig.Market.Store().Inventory()
	if len(sinv.Checkpoints) == 0 {
		t.Fatal("no checkpoints written under load")
	}
	if sinv.LastCheckpoint == 0 {
		t.Fatal("checkpoint inventory has no newest seq")
	}

	slo, err := ParseSLO("bid.p99<10s,error_rate<0.1%")
	if err != nil {
		t.Fatal(err)
	}
	if v := slo.Evaluate(rep); len(v) != 0 {
		t.Fatalf("generous SLO violated in store mode:\n%s\n%v", rep, v)
	}
}
