package command

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"iter"
	"slices"

	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/provenance"
)

// pair is what the state remembers about one (buyer, dataset) — the
// §4.1 bid cadence, the §4.2 Time-Shield wait, the allocation — in 12
// pointer-free bytes, its periods int32 as MaxPeriod bounds them. The
// has* flags, in key's low byte under the dataset index, say which of
// BuyerSnapshot's maps hold its key, so a snapshot round-trips byte for byte.
type pair struct {
	lastBid      int32  // last period with a bid
	blockedUntil int32  // first period allowed to bid again
	key          uint32 // dataset index << 8 | flags
}

const (
	hasLastBid uint32 = 1 << iota
	hasBlockedUntil
	hasAcquired // Acquired holds the key...
	acquired    // ...and this is its value
)

type buyerAccount struct {
	id    BuyerID // as registered: the spelling events and transactions carry
	index uint32  // position in State.buyerIDs
	pairs []pair  // sorted by dataset index
	spent Money
}

func byDataset(a, b pair) int { return cmp.Compare(a.key>>8, b.key>>8) } // a probe's flags are 0

// record returns the buyer's record on dataset i, inserted empty if the
// buyer has none — moving every later record, so a first bid costs time
// linear in the buyer's records. The pointer is good until the next
// insertion.
func (a *buyerAccount) record(i uint32) *pair {
	k, ok := slices.BinarySearchFunc(a.pairs, pair{key: i << 8}, byDataset)
	if !ok {
		if cap(a.pairs) == 0 {
			a.pairs = make([]pair, 0, 8)
		}
		a.pairs = slices.Insert(a.pairs, k, pair{key: i << 8})
	}
	return &a.pairs[k]
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
	cfg   Config
	clock int
	graph *provenance.Graph

	// index interns every dataset name the state has met: add-only, so a
	// withdrawn name keeps its index and a re-upload finds what buyers
	// hold on it. names is the back-table, engines the pricing engine per
	// index, nil while the name is not on sale. Indices are local to the
	// process — a restored state numbers datasets differently from the
	// one that wrote its snapshot — so nothing that leaves it (snapshot,
	// event, error text) may carry one or follow their order.
	index   map[DatasetID]uint32
	names   []DatasetID
	engines []*core.Engine

	// leaves holds a derived dataset's leaves by index, resolved once:
	// neither it nor a base it uses can be withdrawn. nil for a base.
	leaves [][]string

	owners  map[DatasetID]SellerID // base datasets only
	buyers  map[BuyerID]*buyerAccount
	sellers map[SellerID]*sellerAccount

	// buyerIDs is the buyers' back-table, by buyerAccount.index, txs the
	// sales log, one txRec per sale, and runs a txRun per change of period
	// along it: append-only, never rewritten, so TxLog hands out views.
	buyerIDs []BuyerID
	txs      []txRec
	runs     []txRun
	revenue  Money

	// spare is the rest of the chunk of 64 registrations take accounts
	// from; an account never moves, so buyers points into the chunks.
	spare []buyerAccount

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
		index:   make(map[DatasetID]uint32),
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

// intern returns the dataset's index, the next free one for a new name.
func (st *State) intern(id DatasetID) uint32 {
	i, ok := st.index[id]
	if !ok {
		i = uint32(len(st.names))
		st.index[id] = i
		st.names = append(st.names, id)
		st.engines = append(st.engines, nil)
		st.leaves = append(st.leaves, nil)
	}
	return i
}

// checkName refuses an empty dataset name, and a new one past maxDatasets.
func (st *State) checkName(id DatasetID) error {
	if id == "" {
		return ErrEmptyID
	}
	if _, ok := st.index[id]; !ok && len(st.names) >= maxDatasets {
		return fmt.Errorf("%w: %d datasets", ErrCatalogFull, len(st.names))
	}
	return nil
}

// engine returns the dataset's index and engine, nil when not on sale.
func (st *State) engine(id DatasetID) (uint32, *core.Engine) {
	if i, ok := st.index[id]; ok {
		return i, st.engines[i]
	}
	return 0, nil
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

// Period returns the current period.
func (st *State) Period() int { return st.clock }

// NumDatasets returns the number of priced datasets.
func (st *State) NumDatasets() int { return st.graph.Len() }

// DatasetIDs returns the registered dataset IDs, sorted.
func (st *State) DatasetIDs() []DatasetID {
	ids := make([]DatasetID, 0, st.graph.Len())
	for i, eng := range st.engines {
		if eng != nil {
			ids = append(ids, st.names[i])
		}
	}
	slices.Sort(ids)
	return ids
}

// DatasetNames returns the dataset index's back-table — position i is
// the name of index i, withdrawn names included — as a read-only view
// that stays valid while the state grows.
func (st *State) DatasetNames() []DatasetID { return st.names[:len(st.names):len(st.names)] }

// Stats returns the diagnostic snapshot for a dataset.
func (st *State) Stats(dataset DatasetID) (DatasetStats, error) {
	_, eng := st.engine(dataset)
	if eng == nil {
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
	_, eng := st.engine(dataset)
	if eng == nil {
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

// WalkBuyers calls buyer for each buyer in registration order, each call
// followed by record for every dataset index (into DatasetNames) the
// buyer has a record on, ascending: whether it owns the dataset and when
// it may bid on it again.
func (st *State) WalkBuyers(buyer func(id BuyerID, spent Money), record func(dataset uint32, owned bool, blockedUntil int)) {
	for _, id := range st.buyerIDs {
		acct := st.buyers[id]
		buyer(id, acct.spent)
		for _, p := range acct.pairs {
			record(p.key>>8, p.key&acquired != 0, int(p.blockedUntil))
		}
	}
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

// txRec is one sale as the log keeps it: 16 bytes and no pointer. Its Seq
// is its position + 1, its names are in the back-tables, its period in a run.
type txRec struct {
	price   Money
	buyer   uint32 // in State.buyerIDs
	dataset uint32 // in State.names
}

// txRun starts the sales from first to the next run's, all made in
// period: runs follow the log, so periods may come in any order.
type txRun struct{ first, period int }

func byFirst(r txRun, i int) int { return cmp.Compare(r.first, i) }

// appendSale logs a sale, starting a run unless the last sale's period is its.
func (st *State) appendSale(rec txRec, period int) {
	if n := len(st.runs); n == 0 || st.runs[n-1].period != period {
		st.runs = append(st.runs, txRun{len(st.txs), period})
	}
	st.txs = append(st.txs, rec)
}

// TxLog is a read-only view of the first sales of a state's log, which
// stays valid and unchanged while Apply goes on appending: it holds
// prefixes of the add-only log, runs and back-tables, to their arrays'
// full capacity, and spells a sale as a Transaction only when read.
type TxLog struct {
	recs   []txRec
	runs   []txRun
	buyers []BuyerID
	names  []DatasetID
}

// TxLog returns the view of the first n transactions and their runs.
func (st *State) TxLog(n int) TxLog {
	r, _ := slices.BinarySearchFunc(st.runs, n, byFirst)
	return TxLog{st.txs[:n], st.runs[:r], st.buyerIDs, st.names}
}

// Holds reports whether l's arrays still back all of later, a later view
// of the same state: only an append past cap moves one.
func (l TxLog) Holds(later TxLog) bool {
	return cap(l.recs) >= len(later.recs) && cap(l.runs) >= len(later.runs) && cap(l.buyers) >= len(later.buyers) && cap(l.names) >= len(later.names)
}

// Prefix returns the view of the first n sales and r runs written into
// l's arrays, which must still hold them (Holds), names included.
func (l TxLog) Prefix(n, r int) TxLog {
	return TxLog{l.recs[:n:n], l.runs[:r:r], l.buyers[:cap(l.buyers)], l.names[:cap(l.names)]}
}

// Len and Runs count the view's sales and the runs that hold them.
func (l TxLog) Len() int  { return len(l.recs) }
func (l TxLog) Runs() int { return len(l.runs) }

// At returns the i-th sale, Seq i+1, whose run it finds by binary search.
func (l TxLog) At(i int) Transaction {
	k, _ := slices.BinarySearchFunc(l.runs, i+1, byFirst) // the first run after i's
	r := l.recs[i]
	return Transaction{Seq: i + 1, Buyer: l.buyers[r.buyer], Dataset: l.names[r.dataset], Price: r.price, Period: l.runs[k-1].period}
}

// All yields the view's sales in Seq order, walking runs and sales together.
func (l TxLog) All() iter.Seq[Transaction] {
	return func(yield func(Transaction) bool) {
		k := 0
		for i := range l.recs {
			if k+1 < len(l.runs) && l.runs[k+1].first == i {
				k++
			}
			r := l.recs[i]
			if !yield(Transaction{Seq: i + 1, Buyer: l.buyers[r.buyer], Dataset: l.names[r.dataset], Price: r.price, Period: l.runs[k].period}) {
				return
			}
		}
	}
}

// Append appends every sale in the view to dst, in Seq order.
func (l TxLog) Append(dst []Transaction) []Transaction {
	for tx := range l.All() {
		dst = append(dst, tx)
	}
	return dst
}

// paySellers splits price across the owners of the base datasets backing
// dataset, exactly (no micro lost: every leaf's share is price/n, and
// the remainder goes one micro each to the earliest leaves),
// deterministically (leaves are sorted), and returns the total actually
// credited. leaves are a derived dataset's, resolved by the caller; a
// base dataset has none, and its owner is credited the whole price.
func (st *State) paySellers(dataset DatasetID, leaves []string, price Money) Money {
	if len(leaves) == 0 {
		acct, ok := st.sellers[st.owners[dataset]]
		if !ok {
			return 0
		}
		acct.balance += price
		return price
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
		if eng != nil {
			eng.TestSetPricePerturb(f)
		}
	}
}

// Snapshot captures the whole state.
func (st *State) Snapshot() Snapshot { return st.Cut().Snapshot() }

// RestoreState reconstructs a state from a snapshot, validating
// cross-references (every engine has a graph node, every owner exists,
// every transaction's buyer exists), that the sales are numbered 1..n,
// as the log numbers the next one, and that periods and indices fit a record.
func RestoreState(s Snapshot) (*State, error) {
	if err := s.Config.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("market: snapshot config: %w", err)
	}
	if s.Clock < 0 || s.Revenue < 0 {
		return nil, fmt.Errorf("market: snapshot clock/revenue negative")
	}
	if s.Clock >= MaxPeriod {
		return nil, fmt.Errorf("market: snapshot clock %d: %w", s.Clock, ErrClockExhausted)
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
		index:   make(map[DatasetID]uint32, len(s.Engines)),
		owners:  make(map[DatasetID]SellerID, len(s.Owners)),
		buyers:  make(map[BuyerID]*buyerAccount, len(s.Buyers)),
		sellers: make(map[SellerID]*sellerAccount, len(s.Sellers)),
		txs:     make([]txRec, 0, len(s.Transactions)),
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
		i := st.intern(id)
		st.engines[i] = eng
		if !graph.IsBase(string(id)) {
			st.leaves[i], _ = graph.Leaves(string(id))
		}
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
	accts := make([]buyerAccount, len(s.Buyers)) // one allocation for every account
	for id, bs := range s.Buyers {
		acct := &accts[len(st.buyerIDs)]
		*acct = buyerAccount{id: id, index: uint32(len(st.buyerIDs)), pairs: make([]pair, 0, len(bs.LastBid)), spent: bs.Spent}
		// Every key is interned: it need not name a dataset on sale.
		for name, v := range bs.LastBid { // one sort: every record a bid made has a LastBid key
			if v != int(int32(v)) {
				return nil, fmt.Errorf("market: snapshot buyer %s dataset %s: LastBid %d is not an int32", id, name, v)
			}
			acct.pairs = append(acct.pairs, pair{lastBid: int32(v), key: st.intern(name)<<8 | hasLastBid})
		}
		slices.SortFunc(acct.pairs, byDataset)
		for name, v := range bs.BlockedUntil {
			if v != int(int32(v)) {
				return nil, fmt.Errorf("market: snapshot buyer %s dataset %s: BlockedUntil %d is not an int32", id, name, v)
			}
			p := acct.record(st.intern(name))
			p.blockedUntil, p.key = int32(v), p.key|hasBlockedUntil
		}
		for name, v := range bs.Acquired {
			p := acct.record(st.intern(name))
			if p.key |= hasAcquired; v {
				p.key |= acquired
			}
		}
		st.buyers[id] = acct
		st.buyerIDs = append(st.buyerIDs, id)
	}
	for id, ss := range s.Sellers {
		acct := &sellerAccount{balance: ss.Balance, datasets: make([]DatasetID, len(ss.Datasets))}
		copy(acct.datasets, ss.Datasets)
		st.sellers[id] = acct
	}
	for i, tx := range s.Transactions {
		if tx.Seq != i+1 {
			return nil, fmt.Errorf("market: snapshot transaction %d has seq %d", i, tx.Seq)
		}
		// Transactions are history, not live references: a sold dataset
		// may have been withdrawn since (buyers keep delivered data), so
		// only the buyer — who can never deregister — must still exist.
		acct, ok := st.buyers[tx.Buyer]
		if !ok {
			return nil, fmt.Errorf("market: snapshot transaction %d references unknown buyer %s", i, tx.Buyer)
		}
		st.appendSale(txRec{tx.Price, acct.index, st.intern(tx.Dataset)}, tx.Period)
	}
	if len(st.names) > maxDatasets {
		return nil, fmt.Errorf("market: snapshot names %d datasets: %w", len(st.names), ErrCatalogFull)
	}
	return st, nil
}
