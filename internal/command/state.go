package command

import (
	"fmt"
	"hash/fnv"

	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/provenance"
)

type buyerAccount struct {
	lastBid      map[DatasetID]int // last period with a bid per dataset
	blockedUntil map[DatasetID]int // first period allowed to bid again
	acquired     map[DatasetID]bool
	spent        Money
}

type sellerAccount struct {
	balance  Money
	datasets []DatasetID
}

// State is the market state machine Apply mutates: participants, the
// provenance graph, one pricing engine per dataset, the clock, and the
// money books.
//
// # Concurrency contract
//
// State is thread-compatible, not thread-safe, and holds no locks of
// its own: it has exactly one applier at a time. Every Apply, Snapshot
// and accessor below requires that nothing else is touching the state —
// the live market's writer lock (held by the journal's commit stage for
// a whole group), a follower's apply loop, a single-threaded replay.
// Concurrent readers are served from the market's published views,
// never from a State.
//
// Apply is deterministic: the same command sequence against the same
// Config yields a byte-identical canonical Snapshot.
type State struct {
	cfg     Config
	clock   int
	graph   *provenance.Graph
	engines map[DatasetID]*core.Engine
	owners  map[DatasetID]SellerID // base datasets only
	buyers  map[BuyerID]*buyerAccount
	sellers map[SellerID]*sellerAccount

	txs     []Transaction
	revenue Money

	// perturb, when non-nil, is installed into every engine as a price
	// perturbation (test-only; see TestPerturbPrices).
	perturb func(float64) float64
}

// NewState builds an empty State; the engine template must validate.
func NewState(cfg Config) (*State, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("market: engine template: %w", err)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("market: negative shard count %d", cfg.Shards)
	}
	return &State{
		cfg:     cfg,
		graph:   provenance.NewGraph(),
		engines: make(map[DatasetID]*core.Engine),
		owners:  make(map[DatasetID]SellerID),
		buyers:  make(map[BuyerID]*buyerAccount),
		sellers: make(map[SellerID]*sellerAccount),
	}, nil
}

// MustNewState is NewState for static configurations; it panics on
// config errors.
func MustNewState(cfg Config) *State {
	st, err := NewState(cfg)
	if err != nil {
		panic(err)
	}
	return st
}

func (st *State) newEngine(id DatasetID) *core.Engine {
	cfg := st.cfg.Engine
	h := fnv.New64a()
	h.Write([]byte(id))
	cfg.Seed = st.cfg.Seed ^ h.Sum64()
	eng := core.MustNew(cfg)
	if st.perturb != nil {
		eng.TestSetPricePerturb(st.perturb)
	}
	return eng
}

// Config returns the configuration the state was built with.
func (st *State) Config() Config { return st.cfg }

// Period returns the current period.
func (st *State) Period() int { return st.clock }

// NumDatasets returns the number of priced datasets.
func (st *State) NumDatasets() int { return len(st.engines) }

// DatasetIDs returns the registered dataset IDs, sorted.
func (st *State) DatasetIDs() []DatasetID { return sortedKeys(st.engines) }

// Stats returns the diagnostic snapshot for a dataset.
func (st *State) Stats(dataset DatasetID) (DatasetStats, error) {
	eng, ok := st.engines[dataset]
	if !ok {
		return DatasetStats{}, fmt.Errorf("%w: %s", ErrUnknownDataset, dataset)
	}
	return DatasetStats{
		Dataset:         dataset,
		Bids:            eng.Bids(),
		Allocations:     eng.Allocations(),
		Epochs:          eng.Epochs(),
		Revenue:         eng.Revenue(),
		PostingPrice:    eng.PostingPrice(),
		MostLikelyPrice: eng.MostLikelyPrice(),
	}, nil
}

// ComputeWait returns the Time-Shield wait the dataset's engine would
// assign a losing bid of amount right now, without mutating anything.
func (st *State) ComputeWait(dataset DatasetID, amount float64) (int, error) {
	eng, ok := st.engines[dataset]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDataset, dataset)
	}
	return eng.ComputeWaitPeriod(amount), nil
}

// Totals returns the money books in one view: total revenue, the sum of
// every buyer's spend, and the sum of every seller's balance. In a
// conserving market all three are equal.
func (st *State) Totals() (revenue, spent, balances Money) {
	for _, acct := range st.buyers {
		spent += acct.spent
	}
	for _, acct := range st.sellers {
		balances += acct.balance
	}
	return st.revenue, spent, balances
}

// Revenue returns the total revenue raised so far.
func (st *State) Revenue() Money { return st.revenue }

// SellerBalance returns a seller's accumulated compensation.
func (st *State) SellerBalance(id SellerID) (Money, error) {
	acct, ok := st.sellers[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSeller, id)
	}
	return acct.balance, nil
}

// BuyerSpend returns the total a buyer has paid.
func (st *State) BuyerSpend(id BuyerID) (Money, error) {
	acct, ok := st.buyers[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBuyer, id)
	}
	return acct.spent, nil
}

// BuyerIDs returns the registered buyer IDs, sorted.
func (st *State) BuyerIDs() []BuyerID { return sortedKeys(st.buyers) }

// InspectBuyer calls f with the buyer's live acquisition set, wait
// table (first period each dataset may be bid on again) and spend, and
// reports whether the buyer exists. f must not retain or mutate the
// maps. The live market builds its read views from it.
func (st *State) InspectBuyer(id BuyerID, f func(acquired map[DatasetID]bool, blockedUntil map[DatasetID]int, spent Money)) bool {
	acct, ok := st.buyers[id]
	if !ok {
		return false
	}
	f(acct.acquired, acct.blockedUntil, acct.spent)
	return true
}

// SellerIDs returns the registered seller IDs, sorted.
func (st *State) SellerIDs() []SellerID { return sortedKeys(st.sellers) }

// Owner returns the seller of a base dataset; false for derived and
// unknown datasets.
func (st *State) Owner(dataset DatasetID) (SellerID, bool) {
	owner, ok := st.owners[dataset]
	return owner, ok
}

// SellerDatasets returns the base datasets a seller has uploaded.
func (st *State) SellerDatasets(id SellerID) ([]DatasetID, error) {
	acct, ok := st.sellers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSeller, id)
	}
	out := make([]DatasetID, len(acct.datasets))
	copy(out, acct.datasets)
	return out, nil
}

// TxCount returns the number of recorded transactions.
func (st *State) TxCount() int { return len(st.txs) }

// TxAt returns transaction i (0-based).
func (st *State) TxAt(i int) Transaction { return st.txs[i] }

// Transactions returns a copy of the transaction log.
func (st *State) Transactions() []Transaction {
	out := make([]Transaction, len(st.txs))
	copy(out, st.txs)
	return out
}

// paySellers splits price across the owners of the base datasets backing
// dataset, exactly (no micro lost: every leaf's share is price/n, and
// the remainder goes one micro each to the earliest leaves),
// deterministically (leaves are sorted), and returns the total actually
// credited. leaves may be pre-resolved by the caller (nil means
// "resolve here").
func (st *State) paySellers(dataset DatasetID, leaves []string, price Money) Money {
	if leaves == nil {
		var err error
		leaves, err = st.graph.Leaves(string(dataset))
		if err != nil {
			return 0
		}
	}
	if len(leaves) == 0 {
		return 0
	}
	var credited Money
	n := Money(len(leaves))
	base, rem := price/n, price%n
	for i, leaf := range leaves {
		part := base
		if Money(i) < rem {
			part++
		}
		owner, ok := st.owners[DatasetID(leaf)]
		if !ok {
			continue
		}
		if acct, ok := st.sellers[owner]; ok {
			acct.balance += part
			credited += part
		}
	}
	return credited
}

// TestPerturbPrices installs f as a price perturbation on every current
// and future engine (nil removes it). It exists for mutation-canary
// tests that prove the differential harness still detects a seeded
// pricing bug; production code must never call it.
func (st *State) TestPerturbPrices(f func(price float64) float64) {
	st.perturb = f
	for _, eng := range st.engines {
		eng.TestSetPricePerturb(f)
	}
}

// Snapshot captures the whole state.
func (st *State) Snapshot() Snapshot {
	s := Snapshot{
		Config:       st.cfg,
		Clock:        st.clock,
		Graph:        st.graph.Snapshot(),
		Engines:      make(map[DatasetID]core.Snapshot),
		Owners:       make(map[DatasetID]SellerID, len(st.owners)),
		Buyers:       make(map[BuyerID]BuyerSnapshot, len(st.buyers)),
		Sellers:      make(map[SellerID]SellerSnapshot, len(st.sellers)),
		Transactions: make([]Transaction, len(st.txs)),
		Revenue:      st.revenue,
	}
	for id, eng := range st.engines {
		s.Engines[id] = eng.Snapshot()
	}
	for id, owner := range st.owners {
		s.Owners[id] = owner
	}
	for id, acct := range st.buyers {
		bs := BuyerSnapshot{
			LastBid:      make(map[DatasetID]int, len(acct.lastBid)),
			BlockedUntil: make(map[DatasetID]int, len(acct.blockedUntil)),
			Acquired:     make(map[DatasetID]bool, len(acct.acquired)),
			Spent:        acct.spent,
		}
		for k, v := range acct.lastBid {
			bs.LastBid[k] = v
		}
		for k, v := range acct.blockedUntil {
			bs.BlockedUntil[k] = v
		}
		for k, v := range acct.acquired {
			bs.Acquired[k] = v
		}
		s.Buyers[id] = bs
	}
	for id, acct := range st.sellers {
		ss := SellerSnapshot{Balance: acct.balance, Datasets: make([]DatasetID, len(acct.datasets))}
		copy(ss.Datasets, acct.datasets)
		s.Sellers[id] = ss
	}
	copy(s.Transactions, st.txs)
	return s
}

// RestoreState reconstructs a state from a snapshot, validating
// cross-references (every engine has a graph node, every owner exists,
// every transaction's parties exist).
func RestoreState(s Snapshot) (*State, error) {
	if err := s.Config.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("market: snapshot config: %w", err)
	}
	if s.Clock < 0 || s.Revenue < 0 {
		return nil, fmt.Errorf("market: snapshot clock/revenue negative")
	}
	graph, err := provenance.FromSnapshot(s.Graph)
	if err != nil {
		return nil, fmt.Errorf("market: snapshot graph: %w", err)
	}
	if s.Config.Shards < 0 {
		return nil, fmt.Errorf("market: snapshot shard count negative")
	}
	st := &State{
		cfg:     s.Config,
		clock:   s.Clock,
		graph:   graph,
		engines: make(map[DatasetID]*core.Engine, len(s.Engines)),
		owners:  make(map[DatasetID]SellerID, len(s.Owners)),
		buyers:  make(map[BuyerID]*buyerAccount, len(s.Buyers)),
		sellers: make(map[SellerID]*sellerAccount, len(s.Sellers)),
		txs:     make([]Transaction, len(s.Transactions)),
		revenue: s.Revenue,
	}
	for id, es := range s.Engines {
		if !graph.Contains(string(id)) {
			return nil, fmt.Errorf("market: snapshot engine %s has no graph node", id)
		}
		eng, err := core.RestoreSnapshot(es)
		if err != nil {
			return nil, fmt.Errorf("market: snapshot engine %s: %w", id, err)
		}
		st.engines[id] = eng
	}
	for id := range s.Graph {
		if _, ok := s.Engines[DatasetID(id)]; !ok {
			return nil, fmt.Errorf("market: snapshot dataset %s has no engine", id)
		}
	}
	for id, owner := range s.Owners {
		if _, ok := s.Sellers[owner]; !ok {
			return nil, fmt.Errorf("market: snapshot dataset %s owned by unknown seller %s", id, owner)
		}
		st.owners[id] = owner
	}
	for id, bs := range s.Buyers {
		acct := &buyerAccount{
			lastBid:      make(map[DatasetID]int, len(bs.LastBid)),
			blockedUntil: make(map[DatasetID]int, len(bs.BlockedUntil)),
			acquired:     make(map[DatasetID]bool, len(bs.Acquired)),
			spent:        bs.Spent,
		}
		for k, v := range bs.LastBid {
			acct.lastBid[k] = v
		}
		for k, v := range bs.BlockedUntil {
			acct.blockedUntil[k] = v
		}
		for k, v := range bs.Acquired {
			acct.acquired[k] = v
		}
		st.buyers[id] = acct
	}
	for id, ss := range s.Sellers {
		acct := &sellerAccount{balance: ss.Balance, datasets: make([]DatasetID, len(ss.Datasets))}
		copy(acct.datasets, ss.Datasets)
		st.sellers[id] = acct
	}
	for i, tx := range s.Transactions {
		// Transactions are history, not live references: a sold dataset
		// may have been withdrawn since (buyers keep delivered data), so
		// only the buyer — who can never deregister — must still exist.
		if _, ok := st.buyers[tx.Buyer]; !ok {
			return nil, fmt.Errorf("market: snapshot transaction %d references unknown buyer %s", i, tx.Buyer)
		}
		st.txs[i] = tx
	}
	return st, nil
}
