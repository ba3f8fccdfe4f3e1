// Package market is the single-writer shell around the deterministic
// command core (internal/command): buyers, sellers, and an arbiter that
// prices seller-provided datasets with the protected pricing algorithm,
// allocates them to bidding buyers, enforces the bid cadence (at most
// one bid per buyer per period per dataset) and the Time-Shield
// wait-periods, and distributes sale revenue to the sellers whose
// datasets back each product via the provenance graph (the paper's
// Section 2 model).
//
// All market rules live in the command core, which applies a command's
// binary encoding (command.ApplyEncoded) — every write method encodes
// its command and this package adds exactly two things on top:
//
//   - one writer at a time: a single mutex turns concurrent requests
//     into the one-at-a-time applies the core requires. A caller that
//     orders commands itself — the journal's commit stage, which applies
//     a whole group, writes it, and only then publishes — routes the
//     market's writes to itself (SetRoute), takes the same mutex through
//     Stage and splits apply from publication;
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

	// evs, entry and enc are the writer's scratch, guarded by mu: the
	// events Stage.Apply collects, a batch entry re-encoded as a single
	// bid, and a write method's command encoded.
	evs        []command.Event
	entry, enc []byte

	// route, when set (SetRoute), carries every write instead of mu.
	route func(ctx context.Context, body []byte, res []BidResult) (command.Event, error)

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
// returned, and the entries, for the record.
func (s Stage) ApplyBatch(ctx context.Context, body []byte, res []BidResult) (evs []command.Event, applied []command.SubmitBid) {
	cmd, err := command.DecodeBinary(body)
	batch, _ := cmd.(command.BidBatch)
	if err = cmp.Or(checkBody(body), err); err == nil && len(batch.Bids) != len(res) {
		err = fmt.Errorf("%w: a %d-bid batch with %d result slots", command.ErrMalformed, len(batch.Bids), len(res))
	}
	if err != nil {
		for i := range res {
			res[i].Err = err
		}
		return nil, nil
	}
	for i, bid := range batch.Bids {
		s.m.entry, _ = command.AppendBinary(s.m.entry[:0], bid)
		ev, err := s.Apply(ctx, s.m.entry)
		if res[i] = (BidResult{Decision: ev.Decision, Err: err}); err == nil {
			evs, applied = append(evs, ev), append(applied, bid)
		}
	}
	return evs, applied
}

// Replay applies a logged record's payload whole, as recovery does
// (command.ApplyEncoded), appending its events to evs unpublished.
func (s Stage) Replay(body []byte, evs []command.Event) ([]command.Event, error) {
	return command.ApplyEncoded(s.m.st, body, evs)
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

// SetRoute makes route the way m's writes reach the state, in place of
// the market's own writer mutex: every write method encodes its command
// and hands the bytes to route, which must apply them through m's Stage
// (the journal's commit stage is the one route). Set it before the
// market serves traffic. It is a function, not a method, so the
// facade's Market does not offer it.
func SetRoute(m *Market, route func(ctx context.Context, body []byte, res []BidResult) (command.Event, error)) {
	m.route = route
}

// ApplyEncodedCtx is the market's one write path: body, read only until
// the call returns, goes to the route when one is set, and otherwise
// through Stage.Apply, then Publish. A bid_batch body (Stage.ApplyBatch)
// fills res instead, one result per entry.
func (m *Market) ApplyEncodedCtx(ctx context.Context, body []byte, res []BidResult) (command.Event, error) {
	if m.route != nil {
		return m.route(ctx, body, res)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(ctx, body, res)
}

// applyLocked is ApplyEncodedCtx on an unrouted market, under its
// writer mutex.
func (m *Market) applyLocked(ctx context.Context, body []byte, res []BidResult) (command.Event, error) {
	s := m.Stage()
	if command.IsBatch(body) {
		evs, _ := s.ApplyBatch(ctx, body, res)
		s.Publish(ctx, evs...)
		return command.Event{}, nil
	}
	ev, err := s.Apply(ctx, body)
	s.Publish(ctx, ev)
	return ev, err
}

// write encodes cmd once and applies it as ApplyEncodedCtx does. An
// unrouted market encodes into its writer's scratch under the writer
// mutex, so a plain write allocates nothing of its own.
func (m *Market) write(ctx context.Context, cmd command.Command, res []BidResult) (command.Event, error) {
	if m.route != nil {
		body, err := command.AppendBinary(make([]byte, 0, 64), cmd)
		if err != nil {
			return command.Event{}, err
		}
		return m.route(ctx, body, res)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	if m.enc, err = command.AppendBinary(m.enc[:0], cmd); err != nil {
		return command.Event{}, err
	}
	return m.applyLocked(ctx, m.enc, res)
}

// Apply executes one command, given as a value, and publishes its
// events; see ApplyCtx.
func (m *Market) Apply(cmd command.Command) ([]command.Event, error) {
	return m.ApplyCtx(context.Background(), cmd)
}

// ApplyCtx is Apply with request context. A BidBatch applies as replay
// applies its record, until its first failed bid, returning the events
// of the bids before it — on an unrouted market; a routed one refuses
// it, since a journal answers a batch entry by entry (SubmitBids).
func (m *Market) ApplyCtx(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	if _, ok := cmd.(command.BidBatch); !ok {
		ev, err := m.write(ctx, cmd, nil)
		if err != nil {
			return nil, err
		}
		return []command.Event{ev}, nil
	}
	if m.route != nil {
		return nil, fmt.Errorf("%w: a bid_batch goes through SubmitBids", command.ErrMalformed)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	body, err := command.EncodeBinary(cmd)
	if err = cmp.Or(err, checkBody(body)); err != nil {
		return nil, err
	}
	evs, err := command.ApplyEncoded(m.st, body, nil)
	m.Stage().Publish(ctx, evs...)
	return evs, err
}

// RegisterBuyer adds a buyer.
func (m *Market) RegisterBuyer(id BuyerID) error {
	_, err := m.write(context.Background(), command.RegisterBuyer{Buyer: id}, nil)
	return err
}

// RegisterSeller adds a seller.
func (m *Market) RegisterSeller(id SellerID) error {
	_, err := m.write(context.Background(), command.RegisterSeller{Seller: id}, nil)
	return err
}

// UploadDataset registers a base dataset shared by seller (Figure 1,
// step 1) and starts pricing it.
func (m *Market) UploadDataset(seller SellerID, id DatasetID) error {
	_, err := m.write(context.Background(), command.UploadDataset{Seller: seller, Dataset: id}, nil)
	return err
}

// ComposeDataset registers a derived dataset the arbiter assembled from
// existing datasets (Figure 1, step 3) and starts pricing it. Sale
// revenue will flow to the sellers of the base datasets backing it.
func (m *Market) ComposeDataset(id DatasetID, constituents ...DatasetID) error {
	_, err := m.write(context.Background(), command.ComposeDataset{Dataset: id, Constituents: constituents}, nil)
	return err
}

// WithdrawDataset removes a base dataset a seller no longer wants to
// share. Withdrawal is refused while any derived dataset still builds on
// it (those products would silently lose a constituent — the seller must
// wait for the arbiter to retire them) and does not touch money already
// earned. Buyers who purchased the dataset keep it: data is nonrival and
// already delivered.
func (m *Market) WithdrawDataset(seller SellerID, id DatasetID) error {
	_, err := m.write(context.Background(), command.WithdrawDataset{Seller: seller, Dataset: id}, nil)
	return err
}

// tickBody is every tick's encoding.
var tickBody, _ = command.EncodeBinary(command.Tick{})

// Tick advances the market clock by one period and returns the new
// period, 0 if the tick was refused (by a route, or at the clock's last
// period). Buyers may bid once per period per dataset.
func (m *Market) Tick() int {
	ev, _ := m.ApplyEncodedCtx(context.Background(), tickBody, nil)
	return ev.Period
}

// SubmitBid places buyer's bid on dataset at the current period. Winners
// pay the posting price immediately; the payment is split across the
// sellers whose base datasets back the product. Losers receive a
// Time-Shield wait and may not bid on this dataset again until it passes.
func (m *Market) SubmitBid(buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	return m.SubmitBidCtx(context.Background(), buyer, dataset, amount)
}

// SubmitBidCtx is SubmitBid with request context, which rides into the
// apply stage's spans (and a journal's record). The bid is encoded as a
// transport sends it, so an amount no record holds (NaN, ±Inf) is
// command.ErrMalformed.
func (m *Market) SubmitBidCtx(ctx context.Context, buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	ev, err := m.write(ctx, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount}, nil)
	if err != nil {
		return Decision{}, err
	}
	return ev.Decision, nil
}

// SubmitBids places a batch of bids in request order as one bid_batch
// command. Results are returned one per request, and one failed bid
// never aborts the rest of the batch; a batch that does not decode (an
// amount no record holds) fails every slot.
func (m *Market) SubmitBids(reqs []BidRequest) []BidResult {
	out := make([]BidResult, len(reqs))
	bids := make([]command.SubmitBid, len(reqs))
	for i, r := range reqs {
		bids[i] = command.SubmitBid(r)
	}
	_, _ = m.write(context.Background(), command.BidBatch{Bids: bids}, out) // no bids, no batch
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
