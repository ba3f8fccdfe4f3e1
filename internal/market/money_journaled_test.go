package market_test

import (
	"errors"
	"io"
	"math"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// TestJournaledSubmitBidRejectsNonFiniteAmounts is
// TestSubmitBidRejectsBadAmounts on a journaled market, whose bids enter
// the commit stage as their encodings: a NaN or infinite amount makes a
// body the decoder refuses, so the bid answers ErrMalformed — as the same
// bid does over wire — where the bare market, which applies the bid as a
// value, answers ErrBadBid. Either way nothing moves.
func TestJournaledSubmitBidRejectsNonFiniteAmounts(t *testing.T) {
	jm, err := journal.NewMarket(market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 8),
			EpochSize:  4,
		},
		Seed: 1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{jm.RegisterBuyer("b"), jm.RegisterSeller("s"), jm.UploadDataset("s", "d")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := jm.LastSeq()
	for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := jm.SubmitBid("b", "d", amount); !errors.Is(err, command.ErrMalformed) {
			t.Errorf("SubmitBid(amount=%v) err = %v, want ErrMalformed", amount, err)
		}
	}
	if seq := jm.LastSeq(); seq != before {
		t.Errorf("rejected bids were journaled: seq %d -> %d", before, seq)
	}
	if s, _ := jm.Stats("d"); s.Bids != 0 {
		t.Errorf("rejected bids reached the engine: %+v", s)
	}
}
