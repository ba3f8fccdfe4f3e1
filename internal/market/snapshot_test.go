package market

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/rng"
)

// driveSnapshotMarket exercises a market with a mixed workload.
func driveSnapshotMarket(t *testing.T) *Market {
	t.Helper()
	m := setupBasic(t)
	r := rng.New(17)
	for i := 0; i < 30; i++ {
		buyer := BuyerID(fmt.Sprintf("snap-%d", i))
		if err := m.RegisterBuyer(buyer); err != nil {
			t.Fatal(err)
		}
		for _, ds := range []DatasetID{"weather", "traffic", "weather+traffic"} {
			m.SubmitBid(buyer, ds, r.Uniform(1, 150)) // losing/winning mix; waits ignored
		}
		m.Tick()
	}
	return m
}

func TestSnapshotRoundTripExactState(t *testing.T) {
	live := driveSnapshotMarket(t)
	snap := live.Snapshot()

	// JSON round-trip: the snapshot must survive serialization.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(decoded)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Revenue() != live.Revenue() || restored.Period() != live.Period() {
		t.Fatalf("books differ: revenue %v/%v period %d/%d",
			restored.Revenue(), live.Revenue(), restored.Period(), live.Period())
	}
	lt, rt := live.Transactions(), restored.Transactions()
	if len(lt) != len(rt) {
		t.Fatalf("transactions %d vs %d", len(lt), len(rt))
	}
	for i := range lt {
		if lt[i] != rt[i] {
			t.Fatalf("transaction %d differs", i)
		}
	}
	for _, ds := range []DatasetID{"weather", "traffic", "weather+traffic"} {
		ls, _ := live.Stats(ds)
		rs, _ := restored.Stats(ds)
		if ls != rs {
			t.Fatalf("stats %s: %+v vs %+v", ds, ls, rs)
		}
	}

	// Decision-for-decision equality going forward: randomness included.
	r := rng.New(99)
	for i := 0; i < 60; i++ {
		buyer := BuyerID(fmt.Sprintf("post-%d", i))
		if err := live.RegisterBuyer(buyer); err != nil {
			t.Fatal(err)
		}
		if err := restored.RegisterBuyer(buyer); err != nil {
			t.Fatal(err)
		}
		amount := r.Uniform(1, 150)
		ld, lerr := live.SubmitBid(buyer, "weather+traffic", amount)
		rd, rerr := restored.SubmitBid(buyer, "weather+traffic", amount)
		if ld != rd || (lerr == nil) != (rerr == nil) {
			t.Fatalf("bid %d diverged: %+v/%v vs %+v/%v", i, ld, lerr, rd, rerr)
		}
		live.Tick()
		restored.Tick()
	}
	if live.Revenue() != restored.Revenue() {
		t.Fatalf("post-restore revenue diverged: %v vs %v", live.Revenue(), restored.Revenue())
	}
}

func TestSnapshotIsIsolatedFromLiveMarket(t *testing.T) {
	m := setupBasic(t)
	snap := m.Snapshot()
	// Mutating the market after the snapshot must not change the
	// snapshot.
	if _, err := m.SubmitBid("carol", "weather", 1000); err != nil {
		t.Fatal(err)
	}
	if snap.Revenue != 0 {
		t.Fatalf("snapshot revenue mutated: %v", snap.Revenue)
	}
	restored, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != 0 {
		t.Fatalf("restored revenue %v, want 0", restored.Revenue())
	}
}

func TestRestoreSnapshotValidation(t *testing.T) {
	good := driveSnapshotMarket(t).Snapshot()

	mutate := func(f func(*Snapshot)) Snapshot {
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		return s
	}

	cases := map[string]Snapshot{
		"bad config":     mutate(func(s *Snapshot) { s.Config.Engine.EpochSize = 0 }),
		"negative clock": mutate(func(s *Snapshot) { s.Clock = -1 }),
		"engine without graph node": mutate(func(s *Snapshot) {
			es := s.Engines["weather"]
			s.Engines["phantom"] = es
		}),
		"graph node without engine": mutate(func(s *Snapshot) {
			delete(s.Engines, "weather")
		}),
		"owner without seller": mutate(func(s *Snapshot) {
			s.Owners["weather"] = "ghost"
		}),
		"transaction unknown buyer": mutate(func(s *Snapshot) {
			s.Transactions = append(s.Transactions, Transaction{Seq: len(s.Transactions) + 1, Buyer: "ghost", Dataset: "weather"})
		}),
		// The next live sale is numbered len+1: a gap would number two the same.
		"transaction seq gap": mutate(func(s *Snapshot) {
			s.Transactions = append(s.Transactions, Transaction{Seq: len(s.Transactions) + 2, Buyer: "carol", Dataset: "weather"})
		}),
		"cyclic graph": mutate(func(s *Snapshot) {
			s.Graph["weather"] = []string{"weather+traffic"}
		}),
	}
	for name, s := range cases {
		if _, err := RestoreSnapshot(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	n := len(good.Transactions)
	want := fmt.Sprintf("market: snapshot transaction %d has seq %d", n, n+2)
	if _, err := RestoreSnapshot(cases["transaction seq gap"]); err == nil || err.Error() != want {
		t.Errorf("transaction seq gap: %v, want %q", err, want)
	}
	// The untouched snapshot still restores.
	if _, err := RestoreSnapshot(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	// Transactions are history: one referencing a dataset that was
	// withdrawn after the sale must NOT block restore (compaction of a
	// market that sold-then-withdrew a dataset depends on this).
	withdrawn := good
	withdrawn.Transactions = append([]Transaction{}, good.Transactions...)
	withdrawn.Transactions = append(withdrawn.Transactions, Transaction{Seq: len(good.Transactions) + 1, Buyer: "carol", Dataset: "long-gone"})
	if _, err := RestoreSnapshot(withdrawn); err != nil {
		t.Fatalf("snapshot with withdrawn-dataset transaction rejected: %v", err)
	}
}

// TestCheckBooks: a driven market's books balance, and a restored
// snapshot whose revenue was raised by one micro — RestoreState does
// not check the books — is refused by name.
func TestCheckBooks(t *testing.T) {
	live := driveSnapshotMarket(t)
	if live.TxCount() == 0 {
		t.Fatal("no sales: the books check would read nothing")
	}
	if err := live.CheckBooks(); err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	snap.Revenue++
	cooked, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	err = cooked.CheckBooks()
	if err == nil || !strings.Contains(err.Error(), "money not conserved") {
		t.Fatalf("books with one micro of revenue too many: %v, want money not conserved", err)
	}
}
