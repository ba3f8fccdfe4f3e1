package market

import (
	"fmt"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
)

// These assertions pin the zero-alloc audit of the bid hot path: the
// market-shell work around command.Apply — view publication — must not
// allocate for the common case (a losing bid on a base dataset). X9
// measured the view publication at ~540 ns and +3 allocs per bid before
// the audit; the seqlock stats cells and the in-place wait table bring
// the shell's own contribution to zero.

// allocMarket builds an uninstrumented market with one base dataset and
// one registered buyer that has already bid once (so every map the bid
// path touches is warm).
func allocMarket(t testing.TB) *Market {
	t.Helper()
	m := MustNew(benchConfig())
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBid("b", "d", 5); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPublishBidZeroAlloc asserts the per-bid view publication — the
// seqlock stats-cell store and the wait-table write for a losing bid on
// a base dataset — does not allocate. (A winning bid additionally republishes the books and
// the buyer view; sales are orders of magnitude rarer than bids and
// keep their copy-on-write allocations.)
func TestPublishBidZeroAlloc(t *testing.T) {
	m := allocMarket(t)
	ev := command.Event{
		Kind:     command.EvBidDecided,
		Buyer:    "b",
		Dataset:  "d",
		Amount:   5,
		Period:   3,
		Decision: Decision{WaitPeriods: 2},
	}
	if n := testing.AllocsPerRun(200, func() { m.publishBid(&ev) }); n != 0 {
		t.Fatalf("publishBid allocates %.1f times per losing bid, want 0", n)
	}
}

// TestBidHotPathSteadyStateAllocs drives whole losing bids — cadence
// check, engine evaluation with the full Time-Shield wait-period replay,
// an epoch close every eighth bid, view publication — through SubmitBid
// and asserts the steady state is allocation-free per bid. Each run
// pays one Tick (its event slice is the only tolerated allocation) and
// then bids once per buyer.
func TestBidHotPathSteadyStateAllocs(t *testing.T) {
	const buyers, teachers = 64, 4000
	cfg := Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  8,
			// More than the replay's 64-epoch cap, so every loser waits
			// exactly one period and may bid again after the next Tick.
			BidsPerPeriod: 1024,
			MinBid:        1,
		},
		Seed:   42,
		Shards: 8,
	}
	m := MustNew(cfg)
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	// Five hundred epochs of one-shot buyers at 80 pin the weight on the
	// high candidates, so the low bids measured below keep losing (the
	// engine needs ~450 all-low epochs per 500 taught to climb back) and
	// each pays for a replay that runs to the cap.
	for i := 0; i < teachers; i++ {
		id := BuyerID(fmt.Sprintf("teacher%d", i))
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SubmitBid(id, "d", 80); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]BuyerID, buyers)
	for i := range ids {
		ids[i] = BuyerID(string(rune('A'+i%26)) + string(rune('a'+i/26)))
		if err := m.RegisterBuyer(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	bidAll := func() {
		m.Tick()
		for _, id := range ids {
			if d, err := m.SubmitBid(id, "d", 12); err != nil || d.Allocated || d.WaitPeriods != 1 {
				t.Fatalf("bid by %s: %+v, %v; want a loss with a one-period wait", id, d, err)
			}
		}
	}
	bidAll() // warms every per-buyer map
	before, _ := m.Stats("d")
	allocs := testing.AllocsPerRun(100, bidAll)
	// Budget: 1 for the Tick's event slice plus slack. Anything above ~2
	// means a per-bid allocation crept back into the shell or the engine.
	if allocs > 3 {
		perBid := (allocs - 1) / buyers
		t.Fatalf("hot path allocates %.2f per tick+%d bids (%.3f per bid), want <= 3 per run", allocs, buyers, perBid)
	}
	t.Logf("%.2f allocs per tick+%d-bid run", allocs, buyers)
	if after, _ := m.Stats("d"); after.Epochs-before.Epochs != 101*buyers/8 {
		t.Fatalf("%d epochs closed inside the measurement, want %d", after.Epochs-before.Epochs, 101*buyers/8)
	}
}
