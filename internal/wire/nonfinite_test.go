package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// batcher is a market's in-process batch method.
type batcher interface {
	SubmitBids([]market.BidRequest) []market.BidResult
}

// TestNonFiniteBatchGetsOneAnswer: a batch holding an amount no record
// can carry (NaN, ±Inf) gets one answer whichever market takes it and
// however it arrives — a plain or a journaled market, in process or
// through a wire client: every entry is malformed, the finite ones
// beside it included, and the market does not move.
func TestNonFiniteBatchGetsOneAnswer(t *testing.T) {
	ctx := context.Background()
	wantCode, _ := apierr.Classify(command.ErrMalformed)
	// Each returns the market a wire server serves and the one a caller
	// in process submits to.
	plain := func(t *testing.T) (*market.Market, batcher) {
		m := testMarket(t)
		return m, m
	}
	journaled := func(t *testing.T) (*market.Market, batcher) {
		jm, err := journal.NewMarket(testConfig(), new(bytes.Buffer))
		if err != nil {
			t.Fatal(err)
		}
		return jm.Market, jm
	}
	for _, tc := range []struct {
		name   string
		market func(*testing.T) (*market.Market, batcher)
		wire   bool
	}{
		{"plain", plain, false},
		{"journaled", journaled, false},
		{"plain over wire", plain, true},
		{"journaled over wire", journaled, true},
	} {
		for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, amount), func(t *testing.T) {
				m, in := tc.market(t)
				for _, err := range []error{m.RegisterSeller("s"), m.UploadDataset("s", "d"), m.UploadDataset("s", "e"), m.RegisterBuyer("b")} {
					if err != nil {
						t.Fatal(err)
					}
				}
				before := m.Canonical()
				reqs := []market.BidRequest{{Buyer: "b", Dataset: "d", Amount: 150}, {Buyer: "b", Dataset: "e", Amount: amount}}
				var res []market.BidResult
				var err error
				if tc.wire {
					res, err = pipeClient(t, NewServer(m)).SubmitBids(ctx, reqs)
				} else {
					res = in.SubmitBids(reqs)
				}
				if err == nil && len(res) != len(reqs) {
					t.Fatalf("amount %v: %d results for %d bids", amount, len(res), len(reqs))
				}
				for i := range reqs {
					slot := err // a refused frame answers every entry
					if slot == nil {
						slot = res[i].Err
					}
					if code, _ := apierr.Classify(slot); code != wantCode || (!tc.wire && !errors.Is(slot, command.ErrMalformed)) {
						t.Errorf("amount %v: entry %d answered %v, want %s", amount, i, slot, wantCode)
					}
				}
				if !bytes.Equal(m.Canonical(), before) {
					t.Errorf("amount %v: a refused batch moved the market", amount)
				}
			})
		}
	}
}
