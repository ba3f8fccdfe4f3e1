// Package market is the concurrent shell around the deterministic
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
//   - serialization: lock shards turn concurrent requests into the
//     per-engine-serialized Apply calls the core's contract requires,
//     so bids on distinct datasets proceed in parallel;
//   - lock-free reads: every Apply publishes immutable copy-on-write
//     views of the books, so Stats, StatsAll, Totals, Transactions,
//     Owns and the /metrics collectors read an atomic pointer and take
//     no locks at all.
//
// One core.Engine prices each dataset. Derived datasets are combinations
// of base datasets (Figure 1, step 3); a bid on a derived dataset
// propagates as a demand signal to its constituents' engines (step 2).
//
// # Concurrency
//
// The arbiter is sharded by dataset: each dataset hashes to one of
// Config.Shards lock shards (FNV hash of the dataset ID), so bids on
// distinct datasets proceed in parallel while bids on the same dataset
// serialize on its shard. A read-mostly registry lock (sync.RWMutex)
// spans the whole state machine: bids hold it for read; structural
// commands (registration, uploads, composition, withdrawal, Tick,
// Snapshot) hold it for write, which quiesces every in-flight bid and
// acts as the coordinated all-shard lock. Money movement is race-free
// under the core's own per-buyer account mutexes and ledger mutex.
// The lock order is registry -> shards (ascending index) -> buyer
// account -> ledger -> view publication; see DESIGN.md "Concurrency
// model".
package market

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/obs"
)

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

// Market is the arbiter plus its books: a concurrent shell around one
// command.State. All methods are safe for concurrent use; bids on
// datasets in different shards run in parallel, and read endpoints
// never block behind writers.
type Market struct {
	cfg    Config
	st     *command.State
	shards []*shard

	// reg is the registry lock spanning the state machine: bids hold it
	// for read (the shared access the core's contract requires),
	// structural commands hold it for write, which excludes every
	// in-flight bid (the all-shard coordination point).
	reg sync.RWMutex

	// vw holds the lock-free read views every Apply publishes.
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
// from a snapshot, or replayed from a journal head — in the concurrent
// shell: lock shards sized from its config, read views derived from its
// contents. The market takes ownership of st.
func FromState(st *command.State) *Market {
	m := &Market{
		cfg:    st.Config(),
		st:     st,
		shards: newShards(st.Config().Shards),
	}
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

// Apply executes one command against the market with the serialization
// its kind requires: bids take the registry read lock plus the shard
// locks of every engine they touch, everything else takes the registry
// write lock. It returns the command core's events. All public
// mutation methods are wrappers around Apply.
func (m *Market) Apply(cmd command.Command) ([]command.Event, error) {
	return m.ApplyCtx(context.Background(), cmd)
}

// ApplyCtx is Apply with request context: when ctx carries an obs
// trace, a bid records shard.lock_wait and price.evaluate spans. The
// context does not cancel the command — a command that reached the
// market always completes (partial application would desynchronize
// engines and books).
func (m *Market) ApplyCtx(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	switch c := cmd.(type) {
	case command.SubmitBid:
		ev, err := m.applyBidCtx(ctx, c)
		if err != nil {
			return nil, err
		}
		return []command.Event{ev}, nil
	case command.BidBatch:
		// A batch replays strictly in order through the same hot path as
		// individual bids; the first failure stops it (a recorded batch
		// contains only bids that succeeded originally, so a failure
		// during replay is a divergence the caller must see).
		evs := make([]command.Event, 0, len(c.Bids))
		for _, b := range c.Bids {
			ev, err := m.applyBidCtx(ctx, b)
			if err != nil {
				return evs, err
			}
			evs = append(evs, ev)
		}
		return evs, nil
	case command.Settle:
		return command.Apply(m.st, cmd) // ErrNotMarket; no state touched
	default:
		m.reg.Lock()
		defer m.reg.Unlock()
		evs, err := command.Apply(m.st, cmd)
		m.publishStructural(evs)
		return evs, err
	}
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
// period. Buyers may bid once per period per dataset. Tick takes the
// registry write lock, so it linearizes against every in-flight bid on
// every shard.
func (m *Market) Tick() int {
	evs, _ := m.Apply(command.Tick{})
	return evs[0].Period
}

// SubmitBid places buyer's bid on dataset at the current period. Winners
// pay the posting price immediately; the payment is split across the
// sellers whose base datasets back the product. Losers receive a
// Time-Shield wait and may not bid on this dataset again until it passes.
//
// Bids on datasets in different shards execute concurrently; a bid on a
// derived dataset additionally holds the shards of the leaf engines it
// propagates demand to, so the whole engine interaction is atomic with
// respect to any overlapping bid.
func (m *Market) SubmitBid(buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	return m.SubmitBidCtx(context.Background(), buyer, dataset, amount)
}

// SubmitBidCtx is SubmitBid with request context: when ctx carries an
// obs trace, the bid records shard.lock_wait and price.evaluate spans,
// so one request's trace shows where its time went. The context does
// not cancel the bid — a bid that reached the market always completes
// (partial application would desynchronize engines and books).
func (m *Market) SubmitBidCtx(ctx context.Context, buyer BuyerID, dataset DatasetID, amount float64) (Decision, error) {
	ev, err := m.applyBidCtx(ctx, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount})
	if err != nil {
		return Decision{}, err
	}
	return ev.Decision, nil
}

// applyBidCtx is the hot path: it serializes one SubmitBid command into
// the core under the registry read lock plus the shard locks of every
// engine the bid touches, then publishes the read views the bid
// invalidated before the locks are released.
func (m *Market) applyBidCtx(ctx context.Context, c command.SubmitBid) (command.Event, error) {
	if !(c.Amount > 0) {
		return command.Event{}, ErrBadBid
	}
	var applyH, publishH *obs.Histogram
	if m.tel != nil {
		applyH, publishH = m.tel.applyStage, m.tel.publishStage
	}
	m.reg.RLock()
	defer m.reg.RUnlock()

	// Pre-resolve what the bid will touch (and surface unknown-buyer /
	// unknown-dataset errors) before any shard lock is taken, so the
	// lock set is complete and failed lookups never count as shard
	// traffic.
	if !m.st.HasBuyer(c.Buyer) {
		return command.Event{}, fmt.Errorf("%w: %s", ErrUnknownBuyer, c.Buyer)
	}
	leaves, err := m.st.BidLeaves(c.Dataset)
	if err != nil {
		return command.Event{}, err
	}

	// The apply stage covers the whole engine interaction — lock
	// acquisition, pricing, books — up to but excluding view
	// publication, which is its own stage below. Failed pre-resolution
	// above is request validation, not pipeline work, so it stays
	// outside the stage.
	endApply := obs.StageTimer(ctx, applyH, "apply")
	var lockBuf [maxStackLocks]int
	locked := m.lockSet(c.Dataset, leaves, lockBuf[:0])
	endLockSpan := obs.StartSpan(ctx, "shard.lock_wait")
	m.lockShards(locked)
	endLockSpan.End()
	defer m.unlockShards(locked)

	primary := m.shardFor(c.Dataset)
	start := time.Now()
	primary.bids.Add(1)
	defer func() { primary.latencyNs.Add(int64(time.Since(start))) }()

	endEvalSpan := obs.StartSpan(ctx, "price.evaluate")
	var evalStart time.Time
	if m.tel != nil {
		evalStart = time.Now()
	}
	// The scratch buffer is owned by the primary shard, whose lock we
	// hold; the event is copied out by value before the locks drop.
	// ApplyBid (not ApplyInto) keeps the command out of the Command
	// interface — boxing it would allocate on every bid.
	evs, err := command.ApplyBid(m.st, c, primary.evbuf)
	primary.evbuf = evs[:0]
	endEvalSpan.End()
	if m.tel != nil {
		m.tel.priceEval.ObserveSinceTrace(evalStart, obs.ExemplarID(ctx))
	}
	if err != nil {
		endApply.End()
		return command.Event{}, err
	}
	ev := evs[0]
	endApply.End()
	endPublish := obs.StageTimer(ctx, publishH, "publish")
	m.publishBid(ev)
	endPublish.End()
	return ev, nil
}

// Period returns the current period (lock-free).
func (m *Market) Period() int {
	return int(m.vw.clock.Load())
}

// Revenue returns the total revenue raised so far (lock-free).
func (m *Market) Revenue() Money {
	return m.vw.books.Load().revenue
}

// Totals returns the market's money books in one consistent view:
// total revenue, the sum of every buyer's spend, and the sum of every
// seller's balance. In a conserving market all three are equal — the
// torture harness (internal/torture) asserts exactly that after every
// operation. The three sums come from one immutable books view
// published atomically per sale, so the read is both consistent and
// lock-free.
func (m *Market) Totals() (revenue, spent, balances Money) {
	b := m.vw.books.Load()
	return b.revenue, b.spent, b.balances
}

// SellerBalance returns a seller's accumulated compensation.
func (m *Market) SellerBalance(id SellerID) (Money, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	return m.st.SellerBalance(id)
}

// BuyerSpend returns the total a buyer has paid (lock-free).
func (m *Market) BuyerSpend(id BuyerID) (Money, error) {
	cell, ok := (*m.vw.buyers.Load())[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBuyer, id)
	}
	return Money(cell.spent.Load()), nil
}

// Owns reports whether the buyer has acquired the dataset (lock-free).
func (m *Market) Owns(buyer BuyerID, dataset DatasetID) (bool, error) {
	cell, ok := (*m.vw.buyers.Load())[buyer]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownBuyer, buyer)
	}
	_, owns := cell.acquired.Load(dataset)
	return owns, nil
}

// WaitRemaining returns how many periods remain before the buyer may bid
// on the dataset again (0 when unblocked).
func (m *Market) WaitRemaining(buyer BuyerID, dataset DatasetID) (int, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	return m.st.WaitRemaining(buyer, dataset)
}

// Transactions returns a defensive copy of the transaction log, sorted
// by sequence number (lock-free). Sorting is needed because concurrent
// sales may publish their view updates out of sequence order; the
// sequence numbers themselves are assigned under the core's ledger
// mutex and are gapless.
func (m *Market) Transactions() []Transaction {
	txs := m.vw.books.Load().txs
	out := make([]Transaction, len(txs))
	copy(out, txs)
	sortTransactions(out)
	return out
}

// Datasets returns a fresh slice of the registered dataset IDs, sorted
// (lock-free).
func (m *Market) Datasets() []DatasetID {
	stats := *m.vw.stats.Load()
	out := make([]DatasetID, 0, len(stats))
	for id := range stats {
		out = append(out, id)
	}
	sortDatasetIDs(out)
	return out
}

// Stats returns the diagnostic snapshot for a dataset (lock-free): a
// copy of the immutable per-dataset view published by the last bid that
// touched its engine.
func (m *Market) Stats(dataset DatasetID) (DatasetStats, error) {
	cell, ok := (*m.vw.stats.Load())[dataset]
	if !ok {
		return DatasetStats{}, fmt.Errorf("%w: %s", ErrUnknownDataset, dataset)
	}
	return cell.load(), nil
}

// SellerDatasets returns the base datasets a seller has uploaded.
func (m *Market) SellerDatasets(id SellerID) ([]DatasetID, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	return m.st.SellerDatasets(id)
}

// TestPerturbPrices forwards a price perturbation to every current and
// future engine (see command.State.TestPerturbPrices). It exists for
// the torture harness's mutation canary; production code must never
// call it.
func (m *Market) TestPerturbPrices(f func(price float64) float64) {
	m.reg.Lock()
	defer m.reg.Unlock()
	m.st.TestPerturbPrices(f)
}
