package journal

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// allocConfig is testConfig with buyers that wait exactly one period
// after a losing bid of 5: the amount sits under every candidate, so the
// Time-Shield wait is the simulation cap, at most 260 bids, which 1024
// bids per period turn into one period.
func allocConfig() market.Config {
	cfg := testConfig()
	cfg.Engine.BidsPerPeriod = 1024
	return cfg
}

// TestReplayBidAllocs is replay's allocation budget: once the state has
// met the buyer and the dataset, replaying a tick record and a losing bid
// record allocates nothing — the bid's names are looked up in the state
// from the payload's bytes, no command is boxed and the events land in
// replay's scratch. Decoding the record and applying the command, as
// replay did before, cost four allocations per bid: the command's box,
// its two names and a one-event slice.
func TestReplayBidAllocs(t *testing.T) {
	st, err := command.NewState(allocConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp := replay{st: st}
	var records []Record
	for _, cmd := range []command.Command{
		command.RegisterSeller{Seller: "seller"},
		command.UploadDataset{Seller: "seller", Dataset: "dataset"},
		command.RegisterBuyer{Buyer: "buyer"},
		command.Tick{},
		command.SubmitBid{Buyer: "buyer", Dataset: "dataset", Amount: 5},
	} {
		payload, err := command.EncodeBinary(cmd)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, Record{Payload: payload})
	}
	replayed := func(recs []Record) {
		for _, rec := range recs {
			if err := rp.record(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	replayed(records[:3])
	run := func() {
		replayed(records[3:]) // a tick, then the bid
		if ev := rp.evs[0]; ev.Kind != command.EvBidDecided || ev.Decision.Allocated || ev.Decision.WaitPeriods != 1 {
			t.Fatalf("replayed bid: %+v; want a loss with a one-period wait", ev)
		}
	}
	run() // the buyer's record on the dataset, replay's scratch
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("replaying a tick and a losing bid allocates %.1f times, want 0", n)
	}
}

// TestJournaledBidSteadyStateAllocs is TestBidHotPathSteadyStateAllocs
// (internal/market) through the commit stage, entered as both transports
// enter it: bids submitted to a journaled market as their encodings
// (ApplyEncodedCtx) — applied, framed, written to the sink, published —
// allocate nothing in the steady state, losing or winning. The body is
// applied where it lies and recorded as it arrived, the tick's event
// lands in the market's scratch, the bid's comes back by value, and a
// sale's books are stored in place. Each losing run pays one tick and a
// bid per buyer; each winning run a sale per buyer, on a dataset it
// already has a record on, so no record is inserted. With the tick's
// event in a slice of its own the losing runs read 1; boxing the bid into
// a command and its event into a slice cost two per bid, and a fresh
// books view cost one per sale. The sales log's own growth, amortised,
// stays under one allocation per run.
func TestJournaledBidSteadyStateAllocs(t *testing.T) {
	const buyers, runs = 64, 40
	jm, err := NewMarket(allocConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	datasets := []market.DatasetID{"d"}
	for k := 0; k <= runs; k++ { // one to win per run, and the warm-up's
		datasets = append(datasets, market.DatasetID(fmt.Sprintf("w%02d", k)))
	}
	for _, d := range datasets {
		if err := jm.UploadDataset("s", d); err != nil {
			t.Fatal(err)
		}
	}
	bodies := make([][]byte, buyers)
	wins := make([][][]byte, len(datasets)-1)
	for i := range bodies {
		id := market.BuyerID(fmt.Sprintf("buyer-%02d", i))
		if err := jm.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = command.EncodeBinary(command.SubmitBid{Buyer: id, Dataset: "d", Amount: 5}); err != nil {
			t.Fatal(err)
		}
		for k, d := range datasets[1:] {
			if dec, err := jm.SubmitBid(id, d, 5); err != nil || dec.Allocated {
				t.Fatalf("bid by %s on %s: %+v, %v; want a loss", id, d, dec, err)
			}
			// Above the grid's top candidate: every bid wins.
			body, err := command.EncodeBinary(command.SubmitBid{Buyer: id, Dataset: d, Amount: 150})
			if err != nil {
				t.Fatal(err)
			}
			wins[k] = append(wins[k], body)
		}
	}
	ctx := context.Background()
	bidAll := func() {
		if _, err := jm.ApplyEncodedCtx(ctx, tickBody, nil); err != nil {
			t.Fatal(err)
		}
		for i, body := range bodies {
			if ev, err := jm.ApplyEncodedCtx(ctx, body, nil); err != nil || ev.Decision.Allocated || ev.Decision.WaitPeriods != 1 {
				t.Fatalf("bid %d: %+v, %v; want a loss with a one-period wait", i, ev.Decision, err)
			}
		}
	}
	bidAll() // every buyer's record on the dataset, the writer's group
	allocs := testing.AllocsPerRun(100, bidAll)
	t.Logf("%.2f allocs per tick+%d-bid run", allocs, buyers)
	if allocs != 0 {
		t.Fatalf("a journaled tick and %d losing bids allocate %.2f times (%.3f per bid), want 0", buyers, allocs, allocs/buyers)
	}

	next := 0
	winAll := func() {
		for i, body := range wins[next] {
			if ev, err := jm.ApplyEncodedCtx(ctx, body, nil); err != nil || !ev.Decision.Allocated {
				t.Fatalf("bid %d on %s: %+v, %v; want a win", i, datasets[next+1], ev.Decision, err)
			}
		}
		next++
	}
	allocs = testing.AllocsPerRun(runs, winAll) // the warm-up grows every winner's ownership bitset
	t.Logf("%.2f allocs per %d-sale run", allocs, buyers)
	if allocs != 0 {
		t.Fatalf("%d journaled winning bids allocate %.2f times (%.3f per sale), want 0", buyers, allocs, allocs/buyers)
	}
}
