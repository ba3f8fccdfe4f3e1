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
	"cmp"
	"context"
	"fmt"
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

	// evs and entry are the writer's scratch, guarded by mu: the events
	// Stage.Apply collects, and a batch entry re-encoded as a single bid.
	evs   []command.Event
	entry []byte

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
// method but Lock requires the lock; ApplyEncodedCtx is the same
// sequence for one request with nothing in between.
type Stage struct{ m *Market }

// Stage returns the market's writer side.
func (m *Market) Stage() Stage { return Stage{m} }

// Lock takes the market's writer mutex.
func (s Stage) Lock() { s.m.mu.Lock() }

// Unlock releases the market's writer mutex.
func (s Stage) Unlock() { s.m.mu.Unlock() }

// Apply runs one command's binary encoding, read only until Apply
// returns, through command.ApplyEncoded — what recovery runs on the
// record — and returns its one event unpublished: no read observes the
// command until Publish. A bid_batch (see ApplyBatch) or a body over
// command.MaxEncoded is refused before anything moves. The apply stage
// times it, on ctx's trace too. The context does not cancel the command —
// a command that reached the market always completes (partial
// application would desynchronize engines and books).
func (s Stage) Apply(ctx context.Context, body []byte) (command.Event, error) {
	if err := checkBody(body); err != nil || command.IsBatch(body) {
		return command.Event{}, cmp.Or(err, fmt.Errorf("%w: a bid_batch applies through ApplyBatch", command.ErrMalformed))
	}
	m := s.m
	var applyH *obs.Histogram
	if m.tel != nil {
		applyH = m.tel.applyStage
	}
	end := obs.StageTimer(ctx, applyH, "apply")
	evs, err := command.ApplyEncoded(m.st, body, m.evs[:0])
	end.End()
	if m.evs = evs; err != nil {
		return command.Event{}, err
	}
	return evs[0], nil
}

// ApplyBatch applies a bid_batch request entry by entry, each re-encoded
// as a single bid for Apply: one failed bid never aborts the rest (replay
// of the record, which holds the entries that applied, stops at its first
// failure). Each outcome lands in res, one slot per entry; a body that
// does not decode fails every slot. The applied entries' events are
// appended to evs, and the entries returned for the record.
func (s Stage) ApplyBatch(ctx context.Context, body []byte, res []BidResult, evs []command.Event) ([]command.Event, []command.SubmitBid) {
	cmd, err := command.DecodeBinary(body)
	batch, _ := cmd.(command.BidBatch)
	if err = cmp.Or(checkBody(body), err); err == nil && len(batch.Bids) != len(res) {
		err = fmt.Errorf("%w: a %d-bid batch with %d result slots", command.ErrMalformed, len(batch.Bids), len(res))
	}
	if err != nil {
		for i := range res {
			res[i].Err = err
		}
		return evs, nil
	}
	var applied []command.SubmitBid
	for i, bid := range batch.Bids {
		s.m.entry, _ = command.AppendBinary(s.m.entry[:0], bid)
		ev, err := s.Apply(ctx, s.m.entry)
		if res[i] = (BidResult{Decision: ev.Decision, Err: err}); err == nil {
			evs, applied = append(evs, ev), append(applied, bid)
		}
	}
	return evs, applied
}

// checkBody refuses a body too long to replicate.
func checkBody(body []byte) error {
	if len(body) > command.MaxEncoded {
		return fmt.Errorf("%w: a %d-byte command, over the %d-byte limit", command.ErrMalformed, len(body), command.MaxEncoded)
	}
	return nil
}

// Publish makes applied events visible to readers. Events must be
// published in the order Apply returned them; a zero Event publishes
// nothing.
func (s Stage) Publish(ctx context.Context, evs ...command.Event) {
	for i := range evs {
		s.m.publish(ctx, &evs[i])
	}
}

// Cut captures the whole market state for serializing after Unlock.
func (s Stage) Cut() *command.Cut { return s.m.st.Cut() }

// ApplyEncodedCtx is the market's one write path: Stage.Apply, then
// Publish. A bid_batch body (Stage.ApplyBatch) fills res instead, one
// result per entry.
func (m *Market) ApplyEncodedCtx(ctx context.Context, body []byte, res []BidResult) (command.Event, error) {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	if command.IsBatch(body) {
		evs, _ := s.ApplyBatch(ctx, body, res, nil)
		s.Publish(ctx, evs...)
		return command.Event{}, nil
	}
	ev, err := s.Apply(ctx, body)
	s.Publish(ctx, ev)
	return ev, err
}

// Apply executes one command, as a value — encoding it for
// ApplyEncodedCtx would cost an allocation — and publishes its events.
func (m *Market) Apply(cmd command.Command) ([]command.Event, error) {
	return m.ApplyCtx(context.Background(), cmd)
}

// ApplyCtx is Apply with request context.
func (m *Market) ApplyCtx(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	evs, err := command.Apply(m.st, cmd)
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
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	ev, err := command.ApplyBid(m.st, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount})
	s.Publish(context.Background(), ev) // a failed bid's zero Event publishes nothing
	return ev.Decision, err
}

// SubmitBids places a batch of bids in request order. Results are
// returned one per request, and one failed bid never aborts the rest of
// the batch.
func (m *Market) SubmitBids(reqs []BidRequest) []BidResult {
	out := make([]BidResult, len(reqs))
	for i, r := range reqs {
		out[i].Decision, out[i].Err = m.SubmitBid(r.Buyer, r.Dataset, r.Amount)
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
