package market

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/datamarket/shield/internal/command"
)

// views holds the market's lock-free read state: immutable
// copy-on-write values behind atomic pointers, republished by every
// Apply before its locks drop. Readers load one pointer and observe a
// consistent value; they never take the registry, shard, account, or
// ledger locks.
//
// Granularity is chosen per write rate:
//
//   - the outer stats and buyers maps change only on structural
//     commands (upload, withdraw, registration), which already hold the
//     registry write lock — cloning the whole map there is rare and
//     safe;
//   - each dataset's stats and each buyer's view live in their own
//     atomic cell, so the per-bid publication (every bid moves a bid
//     counter, possibly a posting price) swaps one small pointer
//     instead of cloning a map of all datasets;
//   - the books (revenue, total spend, total balances, transactions)
//     change only on sales, which are far rarer than bids; one
//     immutable booksView is republished per sale under a dedicated
//     publication mutex.
type views struct {
	clock atomic.Int64

	// stats maps each priced dataset to its diagnostic cell. The outer
	// map is copy-on-write (cloned under the registry write lock on
	// upload/compose/withdraw); each cell is overwritten in place — a
	// seqlock over per-field atomics, so the per-bid publication
	// allocates nothing — under the dataset's shard lock on every bid
	// that touches its engine.
	stats atomic.Pointer[map[DatasetID]*statsCell]

	// buyers maps each registered buyer to its view cell. The outer map
	// is copy-on-write (cloned under the registry write lock on
	// registration); cells are updated in place under the buyer's
	// account mutex, and only when the buyer wins — losing bids touch no
	// buyer-visible read state.
	buyers atomic.Pointer[map[BuyerID]*buyerCell]

	// books is the money view. booksMu serializes publication (an
	// atomic pointer swap alone would lose concurrent sales); readers
	// only Load.
	booksMu sync.Mutex
	books   atomic.Pointer[booksView]
}

// statsCell publishes one dataset's DatasetStats without allocating: a
// seqlock over per-field atomics instead of a freshly heap-allocated
// value behind an atomic pointer. Writers — bid publication under the
// dataset's shard lock, structural publication under the registry
// write lock, rebuild before sharing — are already mutually serialized
// per cell, so the sequence only has to make torn reads detectable:
// store flips it odd, writes every field, flips it even; load retries
// until it reads the same even sequence on both sides of the copy.
type statsCell struct {
	seq atomic.Uint64 // odd while a store is in flight

	bids        atomic.Int64
	allocations atomic.Int64
	epochs      atomic.Int64
	revenue     atomic.Uint64 // float64 bits
	posting     atomic.Uint64 // float64 bits
	mostLikely  atomic.Uint64 // float64 bits

	dataset DatasetID // immutable after creation
}

func newStatsCell(ds DatasetStats) *statsCell {
	c := &statsCell{dataset: ds.Dataset}
	c.store(ds)
	return c
}

func (c *statsCell) store(ds DatasetStats) {
	c.seq.Add(1)
	c.bids.Store(int64(ds.Bids))
	c.allocations.Store(int64(ds.Allocations))
	c.epochs.Store(int64(ds.Epochs))
	c.revenue.Store(math.Float64bits(ds.Revenue))
	c.posting.Store(math.Float64bits(ds.PostingPrice))
	c.mostLikely.Store(math.Float64bits(ds.MostLikelyPrice))
	c.seq.Add(1)
}

func (c *statsCell) load() DatasetStats {
	for {
		s := c.seq.Load()
		if s&1 == 0 {
			ds := DatasetStats{
				Dataset:         c.dataset,
				Bids:            int(c.bids.Load()),
				Allocations:     int(c.allocations.Load()),
				Epochs:          int(c.epochs.Load()),
				Revenue:         math.Float64frombits(c.revenue.Load()),
				PostingPrice:    math.Float64frombits(c.posting.Load()),
				MostLikelyPrice: math.Float64frombits(c.mostLikely.Load()),
			}
			if c.seq.Load() == s {
				return ds
			}
		}
		runtime.Gosched() // a store is in flight; yield and retry
	}
}

// buyerCell is one buyer's lock-free read state. The acquisition set is
// add-only (a win is its only mutation, and withdrawals don't revoke
// ownership), so it lives in a sync.Map grown in place for the buyer's
// lifetime instead of an immutable map re-copied on every win: hot
// buyers accumulate thousands of acquisitions, and an O(own
// acquisitions) copy per sale made long storms quadratic in sales.
// spent holds the absolute total, republished under the buyer's account
// mutex. The two readers (Owns, BuyerSpend) are single-field lookups,
// so no cross-field consistency is needed.
type buyerCell struct {
	acquired sync.Map     // DatasetID → true; add-only
	spent    atomic.Int64 // Money
}

func (c *buyerCell) publish(acquired map[DatasetID]bool, spent Money) {
	for k := range acquired {
		c.acquired.Store(k, true)
	}
	c.spent.Store(int64(spent))
}

// booksView is the immutable money view: the three conservation sums
// and the transaction log. txs grows by appending to the latest view's
// slice under booksMu — older views keep their shorter length and never
// observe the new element, so sharing the backing array is safe.
type booksView struct {
	revenue  Money
	spent    Money
	balances Money
	txs      []Transaction
}

// rebuildViews derives every view from the current state. Callers must
// have exclusive access (construction, before the market is shared).
func (m *Market) rebuildViews() {
	m.vw.clock.Store(int64(m.st.Period()))

	ids := m.st.DatasetIDs()
	stats := make(map[DatasetID]*statsCell, len(ids))
	for _, id := range ids {
		ds, err := m.st.Stats(id)
		if err != nil {
			continue
		}
		stats[id] = newStatsCell(ds)
	}
	m.vw.stats.Store(&stats)

	buyerIDs := m.st.BuyerIDs()
	buyers := make(map[BuyerID]*buyerCell, len(buyerIDs))
	for _, id := range buyerIDs {
		cell := new(buyerCell)
		m.st.InspectBuyer(id, cell.publish)
		buyers[id] = cell
	}
	m.vw.buyers.Store(&buyers)

	revenue, spent, balances := m.st.Totals()
	m.vw.books.Store(&booksView{
		revenue:  revenue,
		spent:    spent,
		balances: balances,
		txs:      m.st.Transactions(),
	})
}

// publishStructural updates the views invalidated by a structural
// command's events. Callers hold the registry write lock, so outer-map
// clones race with nothing.
func (m *Market) publishStructural(evs []command.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case command.EvTicked:
			m.vw.clock.Store(int64(ev.Period))

		case command.EvBuyerRegistered:
			old := *m.vw.buyers.Load()
			next := make(map[BuyerID]*buyerCell, len(old)+1)
			for k, v := range old {
				next[k] = v
			}
			next[ev.Buyer] = new(buyerCell)
			m.vw.buyers.Store(&next)

		case command.EvDatasetAdded:
			ds, err := m.st.Stats(ev.Dataset)
			if err != nil {
				continue
			}
			old := *m.vw.stats.Load()
			next := make(map[DatasetID]*statsCell, len(old)+1)
			for k, v := range old {
				next[k] = v
			}
			next[ev.Dataset] = newStatsCell(ds)
			m.vw.stats.Store(&next)

		case command.EvDatasetRemoved:
			old := *m.vw.stats.Load()
			next := make(map[DatasetID]*statsCell, len(old))
			for k, v := range old {
				if k != ev.Dataset {
					next[k] = v
				}
			}
			m.vw.stats.Store(&next)
		}
	}
}

// publishBid updates the views invalidated by one decided bid. The
// caller holds the registry read lock and the shard locks of the
// primary dataset and every leaf, which serializes each stats cell's
// publication with every other bid that could touch the same engines.
func (m *Market) publishBid(ev command.Event) {
	m.publishStats(ev.Dataset)
	for _, leaf := range ev.Leaves {
		// A base dataset is its own only leaf; don't publish it twice.
		if DatasetID(leaf) != ev.Dataset {
			m.publishStats(DatasetID(leaf))
		}
	}
	if ev.Tx == nil {
		return
	}

	// A sale: republish the books...
	m.vw.booksMu.Lock()
	old := m.vw.books.Load()
	m.vw.books.Store(&booksView{
		revenue:  old.revenue + ev.Tx.Price,
		spent:    old.spent + ev.Tx.Price,
		balances: old.balances + ev.Paid,
		txs:      append(old.txs, *ev.Tx),
	})
	m.vw.booksMu.Unlock()

	// ...and the winner's cell: the won dataset joins the add-only set
	// and spent is republished as the absolute total — O(1) per sale,
	// independent of how many datasets the buyer already owns.
	// Publication happens under the buyer's account mutex (inside
	// InspectBuyer) so concurrent wins by the same buyer on other shards
	// cannot overwrite this win's spend with a stale total.
	if cell, ok := (*m.vw.buyers.Load())[ev.Buyer]; ok {
		m.st.InspectBuyer(ev.Buyer, func(_ map[DatasetID]bool, spent Money) {
			cell.acquired.Store(ev.Dataset, true)
			cell.spent.Store(int64(spent))
		})
	}
}

// publishStats republishes one dataset's stats cell, in place and
// without allocating (the seqlock store). The caller holds the
// dataset's shard lock (serializing against every other publisher of
// the same cell) and the registry read lock (so the dataset cannot be
// withdrawn mid-publication).
func (m *Market) publishStats(id DatasetID) {
	cell, ok := (*m.vw.stats.Load())[id]
	if !ok {
		return
	}
	ds, err := m.st.Stats(id)
	if err != nil {
		return
	}
	cell.store(ds)
}

func sortDatasetIDs(ids []DatasetID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortTransactions(txs []Transaction) {
	sort.Slice(txs, func(i, j int) bool { return txs[i].Seq < txs[j].Seq })
}
