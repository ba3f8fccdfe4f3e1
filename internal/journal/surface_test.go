package journal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// writes is the write surface a journaled market shares with the
// market it embeds (Tick aside: the journal's also returns its error).
type writes interface {
	Apply(command.Command) ([]command.Event, error)
	ApplyCtx(context.Context, command.Command) ([]command.Event, error)
	ApplyEncodedCtx(context.Context, []byte, []market.BidResult) (command.Event, error)
	RegisterBuyer(market.BuyerID) error
	RegisterSeller(market.SellerID) error
	UploadDataset(market.SellerID, market.DatasetID) error
	ComposeDataset(market.DatasetID, ...market.DatasetID) error
	WithdrawDataset(market.SellerID, market.DatasetID) error
	SubmitBid(market.BuyerID, market.DatasetID, float64) (market.Decision, error)
	SubmitBidCtx(context.Context, market.BuyerID, market.DatasetID, float64) (market.Decision, error)
	SubmitBids([]market.BidRequest) []market.BidResult
}

// TestNoWriteSkipsTheJournal calls every write method three ways — as
// the journal.Market's, as the embedded market.Market's, and as the
// command's encoding through ApplyEncodedCtx — on a market over a plain
// sink and on one over a store. After each call the log holds exactly
// the records the call should have added (none for a refusal), and
// replaying it rebuilds the live market byte for byte.
func TestNoWriteSkipsTheJournal(t *testing.T) {
	ctx := context.Background()
	bids := []market.BidRequest{{Buyer: "c", Dataset: "d", Amount: 5}, {Buyer: "a", Dataset: "d", Amount: 5}, {Buyer: "c", Dataset: "e", Amount: 5}}
	batch := command.BidBatch{Bids: []command.SubmitBid{command.SubmitBid(bids[0]), command.SubmitBid(bids[1]), command.SubmitBid(bids[2])}}
	// Each step's call returns the error of the command it sends, or of
	// a batch's first entry; Tick's call is the surface's own.
	steps := []struct {
		name    string
		records int64
		refused bool
		cmd     command.Command
		call    func(w writes) error
	}{
		{"RegisterSeller", 1, false, command.RegisterSeller{Seller: "s"}, func(w writes) error { return w.RegisterSeller("s") }},
		{"UploadDataset", 1, false, command.UploadDataset{Seller: "s", Dataset: "d"}, func(w writes) error { return w.UploadDataset("s", "d") }},
		{"UploadDataset", 1, false, command.UploadDataset{Seller: "s", Dataset: "e"}, func(w writes) error { return w.UploadDataset("s", "e") }},
		{"ComposeDataset", 1, false, command.ComposeDataset{Dataset: "de", Constituents: []market.DatasetID{"d", "e"}}, func(w writes) error { return w.ComposeDataset("de", "d", "e") }},
		{"UploadDataset", 1, false, command.UploadDataset{Seller: "s", Dataset: "x"}, func(w writes) error { return w.UploadDataset("s", "x") }},
		{"WithdrawDataset", 1, false, command.WithdrawDataset{Seller: "s", Dataset: "x"}, func(w writes) error { return w.WithdrawDataset("s", "x") }},
		{"RegisterBuyer", 1, false, command.RegisterBuyer{Buyer: "a"}, func(w writes) error { return w.RegisterBuyer("a") }},
		{"Apply", 1, false, command.RegisterBuyer{Buyer: "b"}, func(w writes) error {
			_, err := w.Apply(command.RegisterBuyer{Buyer: "b"})
			return err
		}},
		{"ApplyCtx", 1, false, command.RegisterBuyer{Buyer: "c"}, func(w writes) error {
			_, err := w.ApplyCtx(ctx, command.RegisterBuyer{Buyer: "c"})
			return err
		}},
		{"SubmitBid", 1, false, command.SubmitBid{Buyer: "a", Dataset: "d", Amount: 150}, func(w writes) error {
			_, err := w.SubmitBid("a", "d", 150)
			return err
		}},
		{"SubmitBidCtx", 1, false, command.SubmitBid{Buyer: "b", Dataset: "de", Amount: 5}, func(w writes) error {
			_, err := w.SubmitBidCtx(ctx, "b", "de", 5)
			return err
		}},
		// a owns d: the batch's second entry is refused, the other two
		// are one record.
		{"SubmitBids", 1, false, batch, func(w writes) error { return w.SubmitBids(bids)[0].Err }},
		{"Tick", 1, false, command.Tick{}, nil},
		{"RegisterBuyer refused", 0, true, command.RegisterBuyer{Buyer: "a"}, func(w writes) error { return w.RegisterBuyer("a") }},
		{"SubmitBid refused", 0, true, command.SubmitBid{Buyer: "a", Dataset: "d", Amount: 150}, func(w writes) error {
			_, err := w.SubmitBid("a", "d", 150)
			return err
		}},
	}
	surfaces := []struct {
		name string
		call func(jm *Market, step int) error
	}{
		{"journal.Market", func(jm *Market, i int) error {
			if steps[i].call == nil {
				_, err := jm.Tick()
				return err
			}
			return steps[i].call(jm)
		}},
		{"market.Market", func(jm *Market, i int) error {
			if steps[i].call == nil {
				if jm.Market.Tick() == 0 {
					return errors.New("tick refused")
				}
				return nil
			}
			return steps[i].call(jm.Market)
		}},
		{"ApplyEncodedCtx", func(jm *Market, i int) error {
			body, err := command.EncodeBinary(steps[i].cmd)
			if err != nil {
				return err
			}
			var res []market.BidResult
			if b, ok := steps[i].cmd.(command.BidBatch); ok {
				res = make([]market.BidResult, len(b.Bids))
			}
			_, err = jm.ApplyEncodedCtx(ctx, body, res)
			if res != nil {
				err = res[0].Err
			}
			return err
		}},
	}
	markets := []struct {
		name string
		open func(t *testing.T) (jm *Market, replay func() (*market.Market, error))
	}{
		{"NewMarket", func(t *testing.T) (*Market, func() (*market.Market, error)) {
			var log bytes.Buffer
			jm, err := NewMarket(testConfig(), &log)
			if err != nil {
				t.Fatal(err)
			}
			return jm, func() (*market.Market, error) { return Restore(bytes.NewReader(log.Bytes())) }
		}},
		{"OpenStore", func(t *testing.T) (*Market, func() (*market.Market, error)) {
			dir := t.TempDir()
			jm, _, err := OpenStore(testConfig(), dir, StoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = jm.Close() })
			return jm, func() (*market.Market, error) {
				m, _, _, err := RecoverDir(dir)
				return m, err
			}
		}},
	}
	for _, mk := range markets {
		for _, sf := range surfaces {
			t.Run(fmt.Sprintf("%s/%s", mk.name, sf.name), func(t *testing.T) {
				jm, replay := mk.open(t)
				for i, st := range steps {
					before := jm.LastSeq()
					err := sf.call(jm, i)
					if (err != nil) != st.refused {
						t.Fatalf("%s: error %v, want refused=%v", st.name, err, st.refused)
					}
					if got := jm.LastSeq() - before; got != st.records {
						t.Fatalf("%s added %d records, want %d", st.name, got, st.records)
					}
					replayed, err := replay()
					if err != nil {
						t.Fatalf("%s: replay: %v", st.name, err)
					}
					if !bytes.Equal(replayed.Canonical(), jm.Canonical()) {
						t.Fatalf("%s: replay does not rebuild the live market:\n%s", st.name, jm.Snapshot().Diff(replayed.Snapshot()))
					}
				}
			})
		}
	}
}
