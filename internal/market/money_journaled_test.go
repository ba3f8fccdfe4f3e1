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

var badAmountConfig = market.Config{
	Engine: core.Config{
		Candidates: auction.LinearGrid(10, 100, 8),
		EpochSize:  4,
	},
	Seed: 1,
}

// badAmounts is every kind of amount a bid must refuse, and the sentinel
// each is refused with — on a bare market, which applies the bid as a
// value, and on a journaled one, which applies its encoding, alike. A
// NaN or infinite amount is malformed: no record can carry it.
var badAmounts = []struct {
	amount float64
	want   error
}{
	{0, market.ErrBadBid},
	{-1, market.ErrBadBid},
	{-1e300, market.ErrBadBid},
	{math.NaN(), command.ErrMalformed},
	{math.Inf(1), command.ErrMalformed},
	{math.Inf(-1), command.ErrMalformed},
}

func TestSubmitBidRejectsBadAmounts(t *testing.T) {
	m := market.MustNew(badAmountConfig)
	for _, err := range []error{m.RegisterBuyer("b"), m.RegisterSeller("s"), m.UploadDataset("s", "d")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range badAmounts {
		if _, err := m.SubmitBid("b", "d", c.amount); !errors.Is(err, c.want) {
			t.Errorf("SubmitBid(amount=%v) err = %v, want %v", c.amount, err, c.want)
		}
	}
	// The rejections must leave no trace in the books.
	if rev, spent, bal := m.Totals(); rev != 0 || spent != 0 || bal != 0 {
		t.Errorf("rejected bids moved money: revenue=%d spent=%d balances=%d", rev, spent, bal)
	}
}

// TestJournaledSubmitBidRejectsNonFiniteAmounts is
// TestSubmitBidRejectsBadAmounts on a journaled market, whose bids enter
// the commit stage as their encodings: a NaN or infinite amount makes a
// body the decoder refuses, ErrMalformed as over wire. Nothing is
// journaled and nothing reaches the engine.
func TestJournaledSubmitBidRejectsNonFiniteAmounts(t *testing.T) {
	jm, err := journal.NewMarket(badAmountConfig, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{jm.RegisterBuyer("b"), jm.RegisterSeller("s"), jm.UploadDataset("s", "d")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := jm.LastSeq()
	for _, c := range badAmounts {
		if _, err := jm.SubmitBid("b", "d", c.amount); !errors.Is(err, c.want) {
			t.Errorf("SubmitBid(amount=%v) err = %v, want %v", c.amount, err, c.want)
		}
	}
	if seq := jm.LastSeq(); seq != before {
		t.Errorf("rejected bids were journaled: seq %d -> %d", before, seq)
	}
	if s, _ := jm.Stats("d"); s.Bids != 0 {
		t.Errorf("rejected bids reached the engine: %+v", s)
	}
}
