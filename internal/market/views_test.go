package market

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/datamarket/shield/internal/command"
)

// winOn drives bids on a dataset until one wins, ticking between
// periods. The grid tops out at 100, so a 150 bid wins as soon as the
// buyer is not blocked.
func winOn(t *testing.T, m *Market, buyer BuyerID, dataset DatasetID) {
	t.Helper()
	for i := 0; i < 200; i++ {
		d, err := m.SubmitBid(buyer, dataset, 150)
		if err == nil && d.Allocated {
			return
		}
		m.Tick()
	}
	t.Fatalf("no win on %s after 200 periods", dataset)
}

func TestTransactionsDefensiveCopy(t *testing.T) {
	m := setupBasic(t)
	winOn(t, m, "carol", "weather")
	winOn(t, m, "carol", "traffic")

	txs := m.Transactions()
	if len(txs) != 2 {
		t.Fatalf("transactions = %+v, want 2", txs)
	}
	for i, tx := range txs {
		if tx.Seq != i+1 {
			t.Fatalf("transactions not in sequence order: %+v", txs)
		}
	}
	// Mutating the returned slice must not leak into market state.
	txs[0].Buyer = "mallory"
	txs[1].Price = 0
	again := m.Transactions()
	if again[0].Buyer != "carol" || again[1].Price == 0 {
		t.Fatalf("caller mutation leaked into the market: %+v", again)
	}
}

func TestDatasetsDefensiveCopy(t *testing.T) {
	m := setupBasic(t)
	ds := m.Datasets()
	ds[0] = "mallory"
	again := m.Datasets()
	if again[0] == "mallory" {
		t.Fatal("caller mutation leaked into the market")
	}
}

// TestApplyCommandsMatchesWrappers drives the same history through the
// typed wrappers and through Market.Apply with explicit commands; the
// canonical snapshots must be identical — the wrappers are sugar over
// the command core, not a second implementation.
func TestApplyCommandsMatchesWrappers(t *testing.T) {
	viaWrappers := setupBasic(t)
	if _, err := viaWrappers.SubmitBid("carol", "weather", 55); err != nil {
		t.Fatal(err)
	}
	viaWrappers.Tick()

	viaApply := testMarket(t)
	for _, cmd := range []command.Command{
		command.RegisterSeller{Seller: "alice"},
		command.RegisterSeller{Seller: "bob"},
		command.RegisterBuyer{Buyer: "carol"},
		command.UploadDataset{Seller: "alice", Dataset: "weather"},
		command.UploadDataset{Seller: "bob", Dataset: "traffic"},
		command.ComposeDataset{Dataset: "weather+traffic", Constituents: []command.DatasetID{"weather", "traffic"}},
		command.SubmitBid{Buyer: "carol", Dataset: "weather", Amount: 55},
		command.Tick{},
	} {
		if _, err := viaApply.Apply(cmd); err != nil {
			t.Fatalf("apply %q: %v", cmd.Op(), err)
		}
	}

	a, err := viaWrappers.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaApply.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("wrapper-driven and command-driven markets diverged")
	}
}

// TestReuploadKeepsOwnership: a name withdrawn and uploaded again — by
// another seller, even — is the dataset its buyers already own. The
// state keeps the name's index through the withdrawal, so at every step
// the live market and one restored from its snapshot (which renumbers
// every dataset) answer Owns and a rebid alike.
func TestReuploadKeepsOwnership(t *testing.T) {
	m := setupBasic(t)
	if err := m.ComposeDataset("unrelated", "traffic"); err != nil {
		t.Fatal(err)
	}
	winOn(t, m, "carol", "weather+traffic")
	if err := m.WithdrawDataset("alice", "weather"); !errors.Is(err, ErrDatasetInUse) {
		t.Fatalf("withdrawing a constituent: %v, want ErrDatasetInUse", err)
	}
	if err := m.UploadDataset("alice", "maps"); err != nil {
		t.Fatal(err)
	}
	winOn(t, m, "carol", "maps")

	for i, step := range []struct {
		do    func() error
		rebid error
	}{
		{func() error { return nil }, ErrAlreadyAcquired},
		{func() error { return m.WithdrawDataset("alice", "maps") }, ErrUnknownDataset},
		{func() error { m.Tick(); return nil }, ErrUnknownDataset},
		{func() error { return m.UploadDataset("bob", "maps") }, ErrAlreadyAcquired},
		{func() error { m.Tick(); return nil }, ErrAlreadyAcquired},
		{func() error { return m.WithdrawDataset("bob", "maps") }, ErrUnknownDataset},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		restored, err := RestoreSnapshot(m.Snapshot())
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for name, mk := range map[string]*Market{"live": m, "restored": restored} {
			for ds, want := range map[DatasetID]bool{"maps": true, "weather+traffic": true, "weather": false, "nowhere": false} {
				if owns, err := mk.Owns("carol", ds); err != nil || owns != want {
					t.Errorf("step %d, %s market: Owns(carol, %s) = %v, %v; want %v", i, name, ds, owns, err, want)
				}
			}
			if _, err := mk.SubmitBid("carol", "maps", 150); !errors.Is(err, step.rebid) {
				t.Errorf("step %d, %s market: rebid on maps = %v, want %v", i, name, err, step.rebid)
			}
		}
	}
}

// TestOneGroupUploadSaleWithdraw drives one commit group the way the
// journal's stage does — lock, apply everything, publish everything,
// unlock — holding an upload, a winning bid on the new dataset and its
// withdrawal. By the time the upload is published the state no longer
// prices the dataset, yet the sale that follows must find its name in
// the views: the buyer owns it, and the books balance.
func TestOneGroupUploadSaleWithdraw(t *testing.T) {
	m := setupBasic(t)
	ctx := context.Background()
	s := m.Stage()
	s.Lock()
	var group []command.Event
	for _, cmd := range []command.Command{
		command.UploadDataset{Seller: "alice", Dataset: "flash"},
		command.SubmitBid{Buyer: "carol", Dataset: "flash", Amount: 150},
		command.WithdrawDataset{Seller: "alice", Dataset: "flash"},
	} {
		body, err := command.EncodeBinary(cmd)
		if err != nil {
			s.Unlock()
			t.Fatal(err)
		}
		ev, err := s.Apply(ctx, body)
		if err != nil {
			s.Unlock()
			t.Fatalf("%s: %v", cmd.Op(), err)
		}
		group = append(group, ev)
	}
	if owns, _ := m.Owns("carol", "flash"); owns || m.TxCount() != 0 {
		s.Unlock()
		t.Fatalf("before publication: Owns = %v, TxCount = %d", owns, m.TxCount())
	}
	s.Publish(ctx, group...)
	s.Unlock()

	if !group[1].Decision.Allocated {
		t.Fatalf("the bid lost: %+v", group[1].Decision)
	}
	if owns, err := m.Owns("carol", "flash"); err != nil || !owns {
		t.Errorf("Owns(carol, flash) = %v, %v; want true", owns, err)
	}
	txs := m.Transactions()
	if len(txs) != 1 || txs[0].Dataset != "flash" || txs[0].Buyer != "carol" {
		t.Fatalf("transactions = %+v, want carol's purchase of flash", txs)
	}
	revenue, spent, balances := m.Totals()
	if bal, _ := m.SellerBalance("alice"); revenue != txs[0].Price || spent != revenue || balances != revenue || bal != revenue {
		t.Errorf("books: revenue %v spent %v balances %v, alice %v; want %v everywhere", revenue, spent, balances, bal, txs[0].Price)
	}
	if _, err := m.Stats("flash"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("Stats(flash) = %v, want ErrUnknownDataset", err)
	}
	if slices.Contains(m.Datasets(), "flash") {
		t.Errorf("Datasets() still lists flash: %v", m.Datasets())
	}
}
