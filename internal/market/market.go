// Package market is the single-writer shell around the deterministic
// command core (internal/command): buyers, sellers, and an arbiter that
// prices seller-provided datasets with the protected pricing algorithm,
// allocates them to bidding buyers, enforces the bid cadence (at most
// one bid per buyer per period per dataset) and the Time-Shield
// wait-periods, and distributes sale revenue to the sellers whose
// datasets back each product via the provenance graph (the paper's
// Section 2 model).
//
// All market rules live in command.Apply — this package adds exactly
// two things on top of the state machine:
//
//   - one writer at a time: a single mutex turns concurrent requests
//     into the one-at-a-time Apply calls the core requires. A caller
//     that orders commands itself — the journal's commit stage, which
//     applies a whole group, writes it, and only then publishes — takes
//     the same mutex through Stage and splits apply from publication;
//   - lock-free reads: every read method is served from immutable or
//     atomically-updated views published after Apply, never from the
//     state machine, so reads never wait for a writer and never see a
//     command the writer has not published.
//
// One core.Engine prices each dataset. Derived datasets are combinations
// of base datasets (Figure 1, step 3); a bid on a derived dataset
// propagates as a demand signal to its constituents' engines (step 2).
//
// # Concurrency
//
// Posting prices and wait periods are functions of the order bids reach
// the arbiter, so the market has one sequencer: whoever holds the writer
// mutex. See DESIGN.md "Concurrency model".
package market

import (
	"context"
	"sync"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/obs"
)

// DefaultShards is the value Config.Shards has carried by default since
// the market was sharded by dataset. One applier runs every command
// now, so the field selects nothing; the constant remains because the
// field is inside byte-pinned genesis and snapshot records and callers
// that want logs identical to earlier releases' still write it.
const DefaultShards = 16

// Sentinel errors returned by Market operations. They are the command
// core's errors re-exported under their historical home: identities
// (errors.Is) and strings are unchanged.
var (
	ErrUnknownBuyer    = command.ErrUnknownBuyer
	ErrUnknownSeller   = command.ErrUnknownSeller
	ErrUnknownDataset  = command.ErrUnknownDataset
	ErrDuplicateID     = command.ErrDuplicateID
	ErrBadBid          = command.ErrBadBid
	ErrBidTooSoon      = command.ErrBidTooSoon
	ErrWaitActive      = command.ErrWaitActive
	ErrAlreadyAcquired = command.ErrAlreadyAcquired
	ErrEmptyID         = command.ErrEmptyID
	ErrDatasetInUse    = command.ErrDatasetInUse
)

// Domain types, aliased from the command core (which owns them since
// the command-core refactor) so existing callers keep compiling
// unchanged.
type (
	// BuyerID identifies a registered buyer.
	BuyerID = command.BuyerID
	// SellerID identifies a registered seller.
	SellerID = command.SellerID
	// DatasetID identifies a dataset (base or derived).
	DatasetID = command.DatasetID
	// Transaction records one completed sale.
	Transaction = command.Transaction
	// Decision is the market's answer to a bid.
	Decision = command.Decision
	// Config configures a Market.
	Config = command.Config
	// DatasetStats is a diagnostic snapshot of one dataset's pricing
	// engine. It is operator-facing: a deployment must not expose
	// PostingPrice or MostLikelyPrice to buyers (that is the leak
	// Uncertainty-Shield guards against).
	DatasetStats = command.DatasetStats
)

// BidRequest is one bid of a batch submitted through SubmitBids.
type BidRequest struct {
	Buyer   BuyerID   `json:"buyer"`
	Dataset DatasetID `json:"dataset"`
	Amount  float64   `json:"amount"`
}

// BidResult is the outcome of one bid of a batch: either a Decision or
// the error the equivalent SubmitBid call would have returned.
type BidResult struct {
	Decision Decision
	Err      error
}

// Market is the arbiter plus its books: one command.State behind a
// writer mutex, and the read views published from it. All methods are
// safe for concurrent use; writes run one at a time, reads never block.
type Market struct {
	// mu is the writer mutex: it guards st and orders view publication.
	// No read method takes it.
	mu sync.Mutex
	st *command.State

	// vw holds the lock-free read views.
	vw views

	// tel holds pre-bound hot-path instruments; nil until Instrument is
	// called (before the market serves traffic), so uninstrumented
	// markets pay one pointer check per site.
	tel *telemetry
}

// New builds a Market; the engine template must validate.
func New(cfg Config) (*Market, error) {
	st, err := command.NewState(cfg)
	if err != nil {
		return nil, err
	}
	return FromState(st), nil
}

// FromState wraps a state machine the caller built — fresh, restored
// from a snapshot, or replayed from a journal head — in the shell, with
// read views derived from its contents. The market takes ownership of
// st.
func FromState(st *command.State) *Market {
	m := &Market{st: st}
	m.rebuildViews()
	return m
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *Market {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Stage is a market's writer side, for a caller that sequences commands
// itself and must separate applying them from making them visible: the
// journal's commit stage locks, applies a group of commands in order,
// makes the group durable, publishes its events, and unlocks. Every
// method but Lock requires the lock; Market.Apply is the same sequence
// for one command with nothing in between.
type Stage struct{ m *Market }

// Stage returns the market's writer side.
func (m *Market) Stage() Stage { return Stage{m} }

// Lock takes the market's writer mutex.
func (s Stage) Lock() { s.m.mu.Lock() }

// Unlock releases the market's writer mutex.
func (s Stage) Unlock() { s.m.mu.Unlock() }

// Apply runs one command against the state machine and returns the
// core's events without publishing them: no read observes the command
// until Publish. When ctx carries an obs trace a bid records an apply
// span. The context does not cancel the command — a
// command that reached the market always completes (partial application
// would desynchronize engines and books).
func (s Stage) Apply(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	switch c := cmd.(type) {
	case command.SubmitBid:
		ev, err := s.ApplyBid(ctx, c)
		if err != nil {
			return nil, err
		}
		return []command.Event{ev}, nil
	case command.BidBatch:
		// A batch applies strictly in order through the same path as
		// individual bids; the first failure stops it, and the events
		// returned are the applied prefix.
		evs := make([]command.Event, 0, len(c.Bids))
		for _, b := range c.Bids {
			ev, err := s.ApplyBid(ctx, b)
			if err != nil {
				return evs, err
			}
			evs = append(evs, ev)
		}
		return evs, nil
	default:
		return command.Apply(s.m.st, cmd)
	}
}

// ApplyBid is Apply for one bid without boxing it into the Command
// interface (an allocation per call on the one path that makes millions
// of them).
func (s Stage) ApplyBid(ctx context.Context, c command.SubmitBid) (command.Event, error) {
	m := s.m
	var applyH *obs.Histogram
	if m.tel != nil {
		applyH = m.tel.applyStage
	}
	endApply := obs.StageTimer(ctx, applyH, "apply")
	ev, err := command.ApplyBid(m.st, c)
	endApply.End()
	return ev, err
}

// ApplyEncodedBid is ApplyBid for a bid's binary encoding, resolved to
// the state's spellings (command.ResolveBid), which it returns to record.
func (s Stage) ApplyEncodedBid(ctx context.Context, body []byte) (bid command.SubmitBid, ev command.Event, err error) {
	if bid, err = command.ResolveBid(s.m.st, body); err == nil {
		ev, err = s.ApplyBid(ctx, bid)
	}
	return bid, ev, err
}

// Publish makes applied events visible to readers. Events must be
// published in the order Apply returned them.
func (s Stage) Publish(ctx context.Context, evs ...command.Event) {
	for i := range evs {
		s.m.publish(ctx, &evs[i])
	}
}

// Snapshot captures the whole market state.
func (s Stage) Snapshot() Snapshot { return s.m.st.Snapshot() }

// Apply executes one command and publishes its effects. It returns the
// command core's events. All public mutation methods are wrappers
// around Apply.
func (m *Market) Apply(cmd command.Command) ([]command.Event, error) {
	return m.ApplyCtx(context.Background(), cmd)
}

// ApplyCtx is Apply with request context; see Stage.Apply.
func (m *Market) ApplyCtx(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	evs, err := s.Apply(ctx, cmd)
	s.Publish(ctx, evs...)
	return evs, err
}

// RegisterBuyer adds a buyer.
func (m *Market) RegisterBuyer(id BuyerID) error {
	_, err := m.Apply(command.RegisterBuyer{Buyer: id})
	return err
}

// RegisterSeller adds a seller.
func (m *Market) RegisterSeller(id SellerID) error {
	_, err := m.Apply(command.RegisterSeller{Seller: id})
	return err
}

// UploadDataset registers a base dataset shared by seller (Figure 1,
// step 1) and starts pricing it.
func (m *Market) UploadDataset(seller SellerID, id DatasetID) error {
	_, err := m.Apply(command.UploadDataset{Seller: seller, Dataset: id})
	return err
}

// ComposeDataset registers a derived dataset the arbiter assembled from
// existing datasets (Figure 1, step 3) and starts pricing it. Sale
// revenue will flow to the sellers of the base datasets backing it.
func (m *Market) ComposeDataset(id DatasetID, constituents ...DatasetID) error {
	_, err := m.Apply(command.ComposeDataset{Dataset: id, Constituents: constituents})
	return err
}

// WithdrawDataset removes a base dataset a seller no longer wants to
// share. Withdrawal is refused while any derived dataset still builds on
// it (those products would silently lose a constituent — the seller must
// wait for the arbiter to retire them) and does not touch money already
// earned. Buyers who purchased the dataset keep it: data is nonrival and
// already delivered.
func (m *Market) WithdrawDataset(seller SellerID, id DatasetID) error {
	_, err := m.Apply(command.WithdrawDataset{Seller: seller, Dataset: id})
	return err
}

// Tick advances the market clock by one period and returns the new
// period. Buyers may bid once per period per dataset.
func (m *Market) Tick() int {
	evs, _ := m.Apply(command.Tick{})
	return evs[0].Period
}

// SubmitBid places buyer's bid on dataset at the current period. Winners
// pay the posting price immediately; the payment is split across the
// sellers whose base datasets back the product. Losers receive a
// Time-Shield wait and may not bid on this dataset again until it passes.
func (m *Market) SubmitBid(buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	return m.SubmitBidCtx(context.Background(), buyer, dataset, amount)
}

// SubmitBidCtx is SubmitBid with request context; see Stage.Apply.
func (m *Market) SubmitBidCtx(ctx context.Context, buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	ev, err := s.ApplyBid(ctx, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount})
	s.Publish(ctx, ev) // a failed bid's zero Event publishes nothing
	return ev.Decision, err
}

// SubmitEncodedBidCtx is SubmitBidCtx for a bid's binary encoding (see
// Stage.ApplyEncodedBid); body is read only until the call returns.
func (m *Market) SubmitEncodedBidCtx(ctx context.Context, body []byte) (Decision, error) {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	_, ev, err := s.ApplyEncodedBid(ctx, body)
	s.Publish(ctx, ev)
	return ev.Decision, err
}

// SubmitBids places a batch of bids in request order. Results are
// returned one per request, and one failed bid never aborts the rest of
// the batch.
func (m *Market) SubmitBids(reqs []BidRequest) []BidResult {
	return m.SubmitBidsCtx(context.Background(), reqs)
}

// SubmitBidsCtx is SubmitBids with request context: a batch request's
// trace accumulates the spans of all its bids.
func (m *Market) SubmitBidsCtx(ctx context.Context, reqs []BidRequest) []BidResult {
	out := make([]BidResult, len(reqs))
	for i, r := range reqs {
		out[i].Decision, out[i].Err = m.SubmitBidCtx(ctx, r.Buyer, r.Dataset, r.Amount)
	}
	return out
}

// TestPerturbPrices forwards a price perturbation to every current and
// future engine (see command.State.TestPerturbPrices). It exists for
// the torture harness's mutation canary; production code must never
// call it.
func (m *Market) TestPerturbPrices(f func(price float64) float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.TestPerturbPrices(f)
}
