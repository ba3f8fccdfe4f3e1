package market

import (
	"context"
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/obs"
)

// views holds the market's read state: everything a read method
// returns, published by the writer after it applies a command (for a
// journaled market, after the command's group is durable). Readers load
// an atomic pointer or cell and never take the writer mutex, so a read
// neither waits for a writer — not even one stuck in an fsync — nor
// observes a command that has not been published.
//
// Publication has one writer at a time (the holder of Market.mu), so
// cells only need to make concurrent reads safe, not concurrent writes.
//
// Granularity is chosen per write rate and per population:
//
//   - buyers and sellers only ever join, and there are as many of them as
//     the market has participants — the system's scale axis. Each is an
//     add-only registry the writer fills in place, so a registration
//     publishes one cell, whatever the population, and allocates no more;
//   - the outer stats map is catalogue-sized and changes only on upload,
//     compose and withdraw, and a scrape (StatsAll, Datasets) is promised
//     one point-in-time population: it stays copy-on-write;
//   - each dataset's stats, each buyer's view and each seller's view
//     live in their own cell, so the per-bid publication (every bid
//     moves a bid counter, possibly a posting price, and a loser's
//     wait) updates a few words in place instead of cloning a map;
//   - the books (revenue, total spend, total balances, transactions)
//     change only on sales, and live in one cell too, over the state's
//     own transaction log.
type views struct {
	clock atomic.Int64

	// index mirrors the state's dataset index (name → index, withdrawn
	// names included) for readers, who may not touch the state: add-only
	// like the table, and copy-on-write because it is catalogue-sized and
	// changes only when a name is first registered.
	index atomic.Pointer[map[DatasetID]uint32]

	// stats maps each priced dataset to its diagnostic cell. The outer
	// map is copy-on-write on purpose — it is as small as the catalogue,
	// and StatsAll and Datasets hand a scrape the population of one
	// instant (DESIGN §4 "Consistent scrapes"), which a registry ranged
	// while it grows cannot. Each cell is overwritten in place — a
	// seqlock over per-field atomics, so the per-bid publication
	// allocates nothing.
	stats atomic.Pointer[map[DatasetID]*statsCell]

	// buyers holds each registered buyer's view cell, add-only (nobody
	// deregisters). Cells are updated in place.
	buyers registry[BuyerID, buyerCell, *buyerCell]

	// sellers holds each registered seller's view cell, like buyers.
	sellers registry[SellerID, sellerCell, *sellerCell]

	// books is the money cell, updated in place per sale.
	books booksCell
}

// registry is an add-only map from a participant's ID to its cell, with
// one writer — the holder of Market.mu — and lock-free readers: linear
// probing over a power-of-two array of cell pointers hashed with maphash,
// each cell holding its own ID. A slot is filled by one atomic store and
// never emptied, so a probe meets a whole cell or the nil that ends it.
// At most half full, the array grows by the writer filling a doubled one
// and publishing it with one atomic store; a reader still probing the old
// one finds everything it held. rebuildViews sizes it first.
type registry[K ~string, C any, P interface {
	*C
	key() K
}] struct {
	slots atomic.Pointer[[]atomic.Pointer[C]]
	table []atomic.Pointer[C] // what slots holds, for the writer
	n     int                 // cells held, the writer's
}

var registrySeed = maphash.MakeSeed()

// get returns id's cell, nil if none was added. The slot is loaded again
// after the probe, so its key is checked again: the empty slot that ended
// the probe may hold another ID's cell by then.
func (r *registry[K, C, P]) get(id K) P {
	if c := P(r.probe(*r.slots.Load(), id).Load()); c != nil && c.key() == id {
		return c
	}
	return nil
}

// add inserts c, whose ID the registry does not hold yet.
func (r *registry[K, C, P]) add(c P) {
	r.n++
	r.reserve(r.n)
	r.probe(r.table, c.key()).Store(c)
}

// reserve grows the array, unless it already can, to hold n cells at
// most half full.
func (r *registry[K, C, P]) reserve(n int) {
	if r.table != nil && 2*n <= len(r.table) {
		return
	}
	grown := make([]atomic.Pointer[C], max(8, 1<<bits.Len(uint(2*n-1))))
	for i := range r.table {
		if c := P(r.table[i].Load()); c != nil {
			r.probe(grown, c.key()).Store(c)
		}
	}
	r.table = grown
	r.slots.Store(&grown)
}

// probe returns the slot of s holding id's cell, else the empty slot
// that ends id's probe.
func (r *registry[K, C, P]) probe(s []atomic.Pointer[C], id K) *atomic.Pointer[C] {
	for i := maphash.String(registrySeed, string(id)); ; i++ {
		slot := &s[i&uint64(len(s)-1)]
		if c := P(slot.Load()); c == nil || c.key() == id {
			return slot
		}
	}
}

// seqlock publishes a cell's fields in place, without allocating. With
// one writer at a time it need only make torn reads detectable: a store
// adds 1, writes every field, adds 1 again; read retries until it loads
// the same even sequence on both sides of its copy.
type seqlock struct{ atomic.Uint64 }

func (l *seqlock) read(load func()) {
	for {
		if s := l.Load(); s&1 == 0 {
			load()
			if l.Load() == s {
				return
			}
		}
		runtime.Gosched() // a store is in flight; yield and retry
	}
}

// statsCell publishes one dataset's DatasetStats under a seqlock.
type statsCell struct {
	seq seqlock // odd while a store is in flight

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

func (c *statsCell) load() (ds DatasetStats) {
	c.seq.read(func() {
		ds = DatasetStats{
			Dataset:         c.dataset,
			Bids:            int(c.bids.Load()),
			Allocations:     int(c.allocations.Load()),
			Epochs:          int(c.epochs.Load()),
			Revenue:         math.Float64frombits(c.revenue.Load()),
			PostingPrice:    math.Float64frombits(c.posting.Load()),
			MostLikelyPrice: math.Float64frombits(c.mostLikely.Load()),
		}
	})
	return ds
}

// booksCell publishes the money books in place, under a seqlock: the
// three sums, the sale and run counts, and the tables of the state's own
// log, not a copy — republished only when an append has moved one of
// their arrays, O(log n) times a run. A read never reaches past the
// counts, behind which the state appends, and nothing is ever rewritten.
type booksCell struct {
	seq                                   seqlock      // odd while a store is in flight
	revenue, spent, balances, sales, runs atomic.Int64 // three Money sums, the sale and run counts
	tables                                atomic.Pointer[command.TxLog]
}

// books is one consistent read of the cell: the sums of exactly txs.
type books struct {
	revenue, spent, balances Money
	txs                      command.TxLog
}

// store publishes b, whose txs is a view of the state's own log.
func (c *booksCell) store(b books) {
	c.seq.Add(1)
	if t := c.tables.Load(); t == nil || !t.Holds(b.txs) {
		moved := b.txs
		c.tables.Store(&moved)
	}
	c.revenue.Store(int64(b.revenue))
	c.spent.Store(int64(b.spent))
	c.balances.Store(int64(b.balances))
	c.sales.Store(int64(b.txs.Len()))
	c.runs.Store(int64(b.txs.Runs()))
	c.seq.Add(1)
}

func (c *booksCell) load() (b books) {
	var tables *command.TxLog
	var n, r int64
	c.seq.read(func() {
		b.revenue, b.spent, b.balances = Money(c.revenue.Load()), Money(c.spent.Load()), Money(c.balances.Load())
		n, r, tables = c.sales.Load(), c.runs.Load(), c.tables.Load()
	})
	b.txs = tables.Prefix(int(n), int(r))
	return b
}

// buyerCell is one buyer's read state. The acquisition set is add-only
// (a win is its only mutation, and withdrawals don't revoke ownership),
// so it is a bitset over the dataset index (views.index): a win stores
// one word in place, and the words are replaced only to grow — at most
// one bit per name the catalogue ever held (8 bytes at 64 datasets,
// 12.5 KB at 100 000), whatever the buyer owns. spent holds the
// absolute total. The readers are single-field lookups, so no
// cross-field consistency is needed.
//
// waits is the buyer's running Time-Shield waits — per dataset index,
// the first period the buyer may bid again — rewritten by every losing
// bid, so its publication must not allocate, nor may finding the cell (the
// registry compares the ID the cell holds). It is a short slice under a
// mutex of the cell's own: a wait that has run out is a free slot, so
// the slice is as long as the most waits the buyer ever had running at
// once, not its history. The mutex is held for one scan, by the
// publisher or by a WaitRemaining call on this same buyer, and never
// across anything that can block.
type buyerCell struct {
	id       BuyerID                         // immutable: the state's own spelling
	acquired atomic.Pointer[[]atomic.Uint64] // bit i: owns the dataset of index i
	spent    atomic.Int64                    // Money

	waitMu sync.Mutex
	waits  []wait
}

func (c *buyerCell) key() BuyerID { return c.id }

type wait struct {
	index uint32 // in views.index, as the bitset's bits are
	until int32  // as the state's record holds it (command.WaitEnd)
}

// owned returns the ownership bitset, nil before the first purchase.
func (c *buyerCell) owned() []atomic.Uint64 {
	if ws := c.acquired.Load(); ws != nil {
		return *ws
	}
	return nil
}

// acquire publishes the buyer's ownership of the dataset of index i.
// Like every publication it has one caller at a time.
func (c *buyerCell) acquire(i uint32) {
	ws, word := c.owned(), int(i/64)
	if word >= len(ws) {
		grown := make([]atomic.Uint64, word+1)
		for w := range ws {
			grown[w].Store(ws[w].Load())
		}
		c.acquired.Store(&grown)
		ws = grown
	}
	ws[word].Store(ws[word].Load() | 1<<(i%64))
}

// block publishes a wait on the dataset of index i decided at period
// clock, over the buyer's earlier wait on it or else one that has run out.
func (c *buyerCell) block(i uint32, until int32, clock int) {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	free := -1
	for k := range c.waits {
		if c.waits[k].index == i {
			free = k
			break
		}
		if free < 0 && int(c.waits[k].until) <= clock {
			free = k
		}
	}
	if free < 0 {
		c.waits = append(c.waits, wait{})
		free = len(c.waits) - 1
	}
	c.waits[free] = wait{i, until}
}

// blockedUntil returns the first period the buyer may bid on dataset i
// again; 0 when no wait was ever published or its slot was reused.
func (c *buyerCell) blockedUntil(i uint32) int {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	for k := range c.waits {
		if c.waits[k].index == i {
			return int(c.waits[k].until)
		}
	}
	return 0
}

// sellerCell is one seller's read state: the balance as an absolute
// total, and the uploaded datasets as an immutable slice replaced on
// upload and withdrawal.
type sellerCell struct {
	id       SellerID     // immutable: the state's own spelling
	balance  atomic.Int64 // Money
	datasets atomic.Pointer[[]DatasetID]
}

func (c *sellerCell) key() SellerID { return c.id }

// rebuildViews derives every view from the current state, the buyers'
// in registration order. Callers must have exclusive access
// (construction, before the market is shared).
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

	m.vw.index.Store(&map[DatasetID]uint32{})
	m.publishNames()

	// The buyers' cells, the owners' bitsets (each as wide as the
	// catalogue) and the running waits come from one slab each, sized by a
	// counting pass, so their allocations do not grow with the population.
	// A buyer's waits are capped at their length: a later block that
	// appends moves them off the slab instead of over the next buyer's.
	clock, width := m.st.Period(), (len(m.st.DatasetNames())+63)/64
	var buyers, owners, running int
	var owns bool
	m.st.WalkBuyers(func(BuyerID, Money) { buyers, owns = buyers+1, false }, func(_ uint32, owned bool, until int) {
		if owned && !owns {
			owners, owns = owners+1, true
		}
		if until > clock { // a wait that has run out is not worth a slot
			running++
		}
	})

	m.vw.buyers.reserve(buyers)
	cells, words := make([]buyerCell, buyers), make([]atomic.Uint64, owners*width)
	sets, waits := make([][]atomic.Uint64, 0, owners), make([]wait, 0, running)
	var cell *buyerCell
	var first int // the current buyer's first wait in the slab
	m.st.WalkBuyers(func(id BuyerID, spent Money) {
		cell, cells, first = &cells[0], cells[1:], len(waits)
		cell.id = id
		cell.spent.Store(int64(spent))
		m.vw.buyers.add(cell)
	}, func(dataset uint32, owned bool, until int) {
		if owned {
			if cell.acquired.Load() == nil {
				sets, words = append(sets, words[:width:width]), words[width:]
				cell.acquired.Store(&sets[len(sets)-1])
			}
			cell.acquire(dataset)
		}
		if until > clock {
			waits = append(waits, wait{dataset, int32(until)}) // a record's int32
			cell.waits = waits[first:len(waits):len(waits)]
		}
	})

	sellers := m.st.SellerIDs()
	m.vw.sellers.reserve(len(sellers))
	for _, id := range sellers {
		m.vw.sellers.add(&sellerCell{id: id})
		m.publishSeller(id) // before any reader: the cell gets its datasets
	}

	revenue, spent, balances := m.st.Totals()
	m.vw.books.store(books{revenue, spent, balances, m.st.TxLog(m.st.TxCount())})
}

// publishNames extends the index mirror to the names the state has
// interned since it was last published.
func (m *Market) publishNames() {
	names, old := m.st.DatasetNames(), *m.vw.index.Load()
	if len(names) == len(old) {
		return
	}
	next := maps.Clone(old)
	for i := len(old); i < len(names); i++ {
		next[names[i]] = uint32(i)
	}
	m.vw.index.Store(&next)
}

// publish makes one applied event visible. The caller holds the writer
// mutex. Cells republish absolute values read back from the state, which
// may already be past this event when a whole group is published at
// once; that is still a state every reader is allowed to see, because
// the group became durable together.
func (m *Market) publish(ctx context.Context, ev *command.Event) {
	switch ev.Kind {
	case command.EvBidDecided:
		var publishH *obs.Histogram
		if m.tel != nil {
			publishH = m.tel.publishStage
		}
		end := obs.StageTimer(ctx, publishH, "publish")
		m.publishBid(ev)
		end.End()

	case command.EvTicked:
		m.vw.clock.Store(int64(ev.Period))

	case command.EvBuyerRegistered:
		m.vw.buyers.add(&buyerCell{id: ev.Buyer})

	case command.EvSellerRegistered:
		cell := &sellerCell{id: ev.Seller}    // no datasets, no balance
		cell.datasets.Store(new([]DatasetID)) // before a reader can meet the cell
		m.vw.sellers.add(cell)

	case command.EvDatasetAdded:
		m.publishNames() // before anything can return: a sale of it may follow in this group
		if !ev.Derived {
			m.publishSeller(ev.Seller)
		}
		ds, err := m.st.Stats(ev.Dataset)
		if err != nil {
			return // withdrawn again later in the same group
		}
		next := maps.Clone(*m.vw.stats.Load())
		next[ev.Dataset] = newStatsCell(ds)
		m.vw.stats.Store(&next)

	case command.EvDatasetRemoved:
		// The owner's balance is republished with its dataset list: a
		// sale of this dataset earlier in the same group can no longer
		// find its payee through the ownership table.
		m.publishSeller(ev.Seller)
		next := maps.Clone(*m.vw.stats.Load())
		delete(next, ev.Dataset)
		m.vw.stats.Store(&next)
	}
}

// publishBid updates the views invalidated by one decided bid.
func (m *Market) publishBid(ev *command.Event) {
	m.publishStats(ev.Dataset)
	for _, leaf := range ev.Leaves {
		// A base dataset is its own only leaf; don't publish it twice.
		if DatasetID(leaf) != ev.Dataset {
			m.publishStats(DatasetID(leaf))
		}
	}
	cell := m.vw.buyers.get(ev.Buyer)
	i, indexed := (*m.vw.index.Load())[ev.Dataset]
	if !ev.Decision.Allocated {
		// A zero wait is already over; there is nothing to publish.
		if cell != nil && indexed && ev.Decision.WaitPeriods > 0 {
			cell.block(i, command.WaitEnd(ev.Period, ev.Decision.WaitPeriods), ev.Period)
		}
		return
	}

	// A sale: the books, in place, one transaction further along the
	// state's log (the rest of this group may already be on it)...
	old, price := m.vw.books.load(), ev.Decision.PricePaid
	m.vw.books.store(books{old.revenue + price, old.spent + price, old.balances + ev.Paid, m.st.TxLog(old.txs.Len() + 1)})

	// ...the winner's cell: the won dataset joins the add-only set and
	// spent is republished as the absolute total — O(1) per sale,
	// independent of how many datasets the buyer already owns...
	if cell != nil {
		if indexed {
			cell.acquire(i)
		}
		if spent, err := m.st.BuyerSpend(ev.Buyer); err == nil {
			cell.spent.Store(int64(spent))
		}
	}

	// ...and the balance of every seller the sale paid.
	if len(ev.Leaves) == 0 {
		if owner, ok := m.st.Owner(ev.Dataset); ok {
			m.publishBalance(owner)
		}
	}
	for _, leaf := range ev.Leaves {
		if owner, ok := m.st.Owner(DatasetID(leaf)); ok {
			m.publishBalance(owner)
		}
	}
}

// publishStats republishes one dataset's stats cell, in place and
// without allocating (the seqlock store).
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

// publishBalance republishes one seller's balance as the absolute
// total.
func (m *Market) publishBalance(id SellerID) {
	cell := m.vw.sellers.get(id)
	if cell == nil {
		return
	}
	if bal, err := m.st.SellerBalance(id); err == nil {
		cell.balance.Store(int64(bal))
	}
}

// publishSeller republishes a seller's dataset list (the state hands
// back a fresh copy) and balance.
func (m *Market) publishSeller(id SellerID) {
	cell := m.vw.sellers.get(id)
	if cell == nil {
		return
	}
	if ds, err := m.st.SellerDatasets(id); err == nil {
		cell.datasets.Store(&ds)
	}
	m.publishBalance(id)
}

// Period returns the current period.
func (m *Market) Period() int {
	return int(m.vw.clock.Load())
}

// Revenue returns the total revenue raised so far.
func (m *Market) Revenue() Money { return m.vw.books.load().revenue }

// Totals returns the market's money books in one consistent view:
// total revenue, the sum of every buyer's spend, and the sum of every
// seller's balance. In a conserving market all three are equal — the
// torture harness (internal/torture) asserts exactly that after every
// operation. The three sums come from one consistent read of the books
// cell.
func (m *Market) Totals() (revenue, spent, balances Money) {
	b := m.vw.books.load()
	return b.revenue, b.spent, b.balances
}

// CheckBooks checks the books against the sales they sum, from one read
// of the books cell: revenue equals total buyer spend, equals total
// seller balances (provenance splits are exact in Money), equals the sum
// of sale prices, and the sales carry seqs 1..n in order. A lost,
// double-counted or reordered sale breaks one of them.
func (m *Market) CheckBooks() error {
	b := m.vw.books.load()
	var txSum Money
	i := 0
	for tx := range b.txs.All() {
		if i++; tx.Seq != i {
			return fmt.Errorf("market: transaction log has seq %d at position %d", tx.Seq, i)
		}
		txSum += tx.Price
	}
	if b.revenue != b.spent || b.revenue != b.balances || b.revenue != txSum {
		return fmt.Errorf("market: money not conserved: revenue=%s spent=%s balances=%s txsum=%s",
			b.revenue, b.spent, b.balances, txSum)
	}
	return nil
}

// SellerBalance returns a seller's accumulated compensation.
func (m *Market) SellerBalance(id SellerID) (Money, error) {
	cell := m.vw.sellers.get(id)
	if cell == nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSeller, id)
	}
	return Money(cell.balance.Load()), nil
}

// SellerDatasets returns the base datasets a seller has uploaded.
func (m *Market) SellerDatasets(id SellerID) ([]DatasetID, error) {
	cell := m.vw.sellers.get(id)
	if cell == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSeller, id)
	}
	ds := *cell.datasets.Load()
	out := make([]DatasetID, len(ds))
	copy(out, ds)
	return out, nil
}

// BuyerSpend returns the total a buyer has paid.
func (m *Market) BuyerSpend(id BuyerID) (Money, error) {
	cell := m.vw.buyers.get(id)
	if cell == nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBuyer, id)
	}
	return Money(cell.spent.Load()), nil
}

// Owns reports whether the buyer has acquired the dataset.
func (m *Market) Owns(buyer BuyerID, dataset DatasetID) (bool, error) {
	cell := m.vw.buyers.get(buyer)
	if cell == nil {
		return false, fmt.Errorf("%w: %s", ErrUnknownBuyer, buyer)
	}
	i, ok := (*m.vw.index.Load())[dataset]
	ws, word := cell.owned(), int(i/64)
	return ok && word < len(ws) && ws[word].Load()>>(i%64)&1 != 0, nil
}

// WaitRemaining returns how many periods remain before the buyer may bid
// on the dataset again (0 when unblocked).
func (m *Market) WaitRemaining(buyer BuyerID, dataset DatasetID) (int, error) {
	cell := m.vw.buyers.get(buyer)
	if cell == nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBuyer, buyer)
	}
	i, ok := (*m.vw.index.Load())[dataset]
	if until, clock := cell.blockedUntil(i), m.Period(); ok && clock < until {
		return until - clock, nil
	}
	return 0, nil
}

// TxCount returns the number of completed sales, without copying them.
func (m *Market) TxCount() int { return m.vw.books.load().txs.Len() }

// Transactions returns the transaction log, spelled afresh for the
// caller, in sequence order.
func (m *Market) Transactions() []Transaction {
	txs := m.vw.books.load().txs
	return txs.Append(make([]Transaction, 0, txs.Len()))
}

// Datasets returns a fresh slice of the registered dataset IDs, sorted.
func (m *Market) Datasets() []DatasetID {
	stats := *m.vw.stats.Load()
	out := make([]DatasetID, 0, len(stats))
	for id := range stats {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the diagnostic snapshot for a dataset: a copy of the
// per-dataset view published by the last bid that touched its engine.
func (m *Market) Stats(dataset DatasetID) (DatasetStats, error) {
	cell, ok := (*m.vw.stats.Load())[dataset]
	if !ok {
		return DatasetStats{}, fmt.Errorf("%w: %s", ErrUnknownDataset, dataset)
	}
	return cell.load(), nil
}
