package command

import (
	"errors"
	"math"

	"github.com/datamarket/shield/internal/core"
)

// Sentinel errors returned by Apply (and re-exported by
// internal/market, which historically owned them — the strings keep the
// "market:" prefix so error text is byte-identical across the move;
// tooling, tests and the torture harness compare errors by full string).
var (
	ErrUnknownBuyer    = errors.New("market: unknown buyer")
	ErrUnknownSeller   = errors.New("market: unknown seller")
	ErrUnknownDataset  = errors.New("market: unknown dataset")
	ErrDuplicateID     = errors.New("market: identifier already registered")
	ErrBadBid          = errors.New("market: bid must be a positive amount")
	ErrBidTooSoon      = errors.New("market: buyer already bid this period")
	ErrWaitActive      = errors.New("market: buyer is in a Time-Shield wait period")
	ErrAlreadyAcquired = errors.New("market: buyer already owns this dataset")
	ErrEmptyID         = errors.New("market: empty identifier")
	ErrDatasetInUse    = errors.New("market: dataset backs derived products")
	ErrClockExhausted  = errors.New("market: the clock is at its last period")
	ErrCatalogFull     = errors.New("market: the catalog has no dataset index left")
)

// MaxPeriod bounds the periods a state holds, so that a (buyer, dataset)
// record keeps its two in 32 bits: the clock stops one short of it (a
// Tick there is ErrClockExhausted), and a wait that would end at or past
// it ends at it, which refuses exactly the bids the longer wait would.
const MaxPeriod = math.MaxInt32

// MaxDatasets bounds the names a state interns, withdrawn ones included,
// so a record keeps the index in 24 bits: a new name past it is ErrCatalogFull.
const MaxDatasets = 1 << 24

var maxDatasets = MaxDatasets // tests lower it

// WaitEnd is the first period a buyer that lost at clock with the given
// wait may bid again, held at MaxPeriod.
func WaitEnd(clock, wait int) int32 {
	return int32(min(clock+min(wait, MaxPeriod), MaxPeriod))
}

// BuyerID identifies a registered buyer.
type BuyerID string

// SellerID identifies a registered seller.
type SellerID string

// DatasetID identifies a dataset (base or derived).
type DatasetID string

// Transaction records one completed sale.
type Transaction struct {
	Seq     int
	Buyer   BuyerID
	Dataset DatasetID
	Price   Money
	Period  int
}

// Decision is the market's answer to a bid. Unlike core.Decision it hides
// the posting price from losers: a losing buyer learns only its wait.
type Decision struct {
	// Allocated reports whether the buyer won the dataset.
	Allocated bool
	// PricePaid is the posting price charged to a winner (zero for
	// losers).
	PricePaid Money
	// WaitPeriods is the number of periods the buyer must wait before
	// bidding on this dataset again (zero for winners).
	WaitPeriods int
}

// Config configures a market state machine.
type Config struct {
	// Engine is the pricing-engine template applied to every dataset;
	// each dataset's engine gets a seed derived from Seed and the dataset
	// ID.
	Engine core.Config
	// Seed is the market-level seed.
	Seed uint64
	// Shards is a recorded field that selects nothing: it once sized the
	// live market's lock shards and is inside byte-pinned genesis and
	// snapshot records, so it still round-trips (and must not be
	// negative), but one applier runs every command now.
	Shards int
}

// DatasetStats is a diagnostic snapshot of one dataset's pricing engine.
// It is operator-facing: a deployment must not expose PostingPrice or
// MostLikelyPrice to buyers (that is the leak Uncertainty-Shield guards
// against).
type DatasetStats struct {
	Dataset     DatasetID
	Bids        int
	Allocations int
	Epochs      int
	Revenue     float64
	PostingPrice,
	MostLikelyPrice float64
}
