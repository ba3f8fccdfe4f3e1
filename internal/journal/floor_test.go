package journal

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
)

// TestFloorBidStoreReopens: on marketd's default grid, 12 000 buyers each
// bid the floor price once on one dataset. Every epoch then posts the
// floor, so every candidate above the top bid costs exactly 1, its weight
// halves each epoch and, past the smallest subnormal, reaches 0. The
// checkpoint the close writes holds those zero weights, and the store
// must still reopen, and recover, byte-identical to the live market.
func TestFloorBidStoreReopens(t *testing.T) {
	cfg := market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(1, 200, 40),
			EpochSize:     8,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed:   2022,
		Shards: market.DefaultShards,
	}
	dir := t.TempDir()
	jm, _, err := OpenStore(cfg, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		id := market.BuyerID(fmt.Sprintf("b%05d", i))
		if err := jm.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		if _, err := jm.SubmitBid(id, "d", 1); err != nil {
			t.Fatal(err)
		}
	}
	want, wantSnap := jm.Canonical(), jm.Snapshot()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, _, err := OpenStore(cfg, dir, StoreConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if !bytes.Equal(reopened.Canonical(), want) {
		t.Fatalf("reopened store differs from the live market: %s", reopened.Snapshot().Diff(wantSnap))
	}
	recovered, _, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatalf("RecoverDir: %v", err)
	}
	if !bytes.Equal(recovered.Canonical(), want) {
		t.Fatal("recovered store differs from the live market")
	}
}
