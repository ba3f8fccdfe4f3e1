package torture

import (
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/journal"
)

// storeSmall is small() with the direct twin's store under a test
// directory, on aggressive rotation, checkpointing and compaction.
func storeSmall(t *testing.T, seed uint64, ops int) Config {
	cfg := small(seed, ops)
	cfg.StoreDir = t.TempDir()
	cfg.Store = journal.StoreConfig{SegmentRecords: 64, CheckpointEvery: 150}
	return cfg
}

// TestStoreTwinDifferential: the direct twin's store rides a full
// differential run — rotation, checkpoints, compaction and two seeded
// crash-cut recovery drills, all while matching the reference on every
// op.
func TestStoreTwinDifferential(t *testing.T) {
	rep, err := Run(storeSmall(t, 3, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreSegments == 0 || rep.StoreCheckpoints == 0 {
		t.Fatalf("store twin inventory empty: %d segments, %d checkpoints",
			rep.StoreSegments, rep.StoreCheckpoints)
	}
	if rep.StoreCrashCuts != 2 {
		t.Fatalf("crash-cut drills ran %d times, want 2", rep.StoreCrashCuts)
	}
	if rep.StoreDiskPeak == 0 {
		t.Fatal("store disk peak never measured")
	}
}

// TestStoreTwinByteEquivalence: with compaction off the direct twin
// keeps its whole history, and its record stream must equal the
// full-history twins' record for record.
func TestStoreTwinByteEquivalence(t *testing.T) {
	cfg := storeSmall(t, 11, 2500)
	cfg.Store.RetainSegments = -1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTwinDiskCeiling: compaction must hold a generous ceiling;
// an absurdly small one must trip the gate with a named reason.
func TestStoreTwinDiskCeiling(t *testing.T) {
	cfg := storeSmall(t, 5, 2500)
	cfg.StoreDiskCeilingBytes = 64 << 20
	if _, err := Run(cfg); err != nil {
		t.Fatalf("64 MiB ceiling tripped on a tiny run: %v", err)
	}

	cfg = storeSmall(t, 5, 2500)
	cfg.StoreDiskCeilingBytes = 512 // nothing fits in half a KiB
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("absurd disk ceiling not enforced")
	}
	if !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("ceiling failure reason unclear: %v", err)
	}
}

// TestStoreTwinMutationCanary: perturbing only the live replicas'
// prices must still be caught with the direct twin compacting.
func TestStoreTwinMutationCanary(t *testing.T) {
	cfg := storeSmall(t, 9, 2000)
	cfg.canaryPerturb = func(p float64) float64 { return p + 1 }
	if _, err := Run(cfg); err == nil {
		t.Fatal("price perturbation not caught with store twin attached")
	}
}
