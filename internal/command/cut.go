package command

import (
	"io"
	"maps"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/core"
)

// Cut is the state at one point, cheap to capture inside the commit
// stage: the small sections copied as a Snapshot's, every buyer's records
// copied into one pointer-free slice, and a TxLog view, which holds the
// name tables too. It is immutable: Snapshot and WriteCanonical may run
// on it at once, and concurrently with Apply on its state.
type Cut struct {
	head   Snapshot // every section but buyers and transactions
	buyers []cutBuyer
	recs   []pair
	txs    TxLog
}

type cutBuyer struct {
	id       BuyerID
	spent    Money
	from, to int // its records, in Cut.recs
}

// Cut captures the state, buyers in map order: encoding sorts them later.
func (st *State) Cut() *Cut {
	c := &Cut{
		head: Snapshot{
			Config:  st.cfg,
			Clock:   st.clock,
			Graph:   st.graph.Snapshot(),
			Engines: make(map[DatasetID]core.Snapshot),
			Owners:  maps.Clone(st.owners),
			Sellers: make(map[SellerID]SellerSnapshot, len(st.sellers)),
			Revenue: st.revenue,
		},
		buyers: make([]cutBuyer, 0, len(st.buyers)),
		txs:    st.TxLog(len(st.txs)),
	}
	for i, eng := range st.engines {
		if eng != nil {
			c.head.Engines[st.names[i]] = eng.Snapshot()
		}
	}
	for id, acct := range st.sellers {
		c.head.Sellers[id] = SellerSnapshot{Balance: acct.balance, Datasets: append([]DatasetID{}, acct.datasets...)}
	}
	n := 0
	for _, acct := range st.buyers {
		n += len(acct.pairs)
	}
	c.recs = make([]pair, 0, n)
	for id, acct := range st.buyers {
		from := len(c.recs)
		c.recs = append(c.recs, acct.pairs...)
		c.buyers = append(c.buyers, cutBuyer{id, acct.spent, from, len(c.recs)})
	}
	return c
}

// buyer spells b's records as bs's three maps, cleared first.
func (c *Cut) buyer(b cutBuyer, bs *BuyerSnapshot) {
	clear(bs.LastBid)
	clear(bs.BlockedUntil)
	clear(bs.Acquired)
	bs.Spent = b.spent
	for _, r := range c.recs[b.from:b.to] {
		name := c.txs.names[r.key>>8]
		if r.key&hasLastBid != 0 {
			bs.LastBid[name] = int(r.lastBid)
		}
		if r.key&hasBlockedUntil != 0 {
			bs.BlockedUntil[name] = int(r.blockedUntil)
		}
		if r.key&hasAcquired != 0 {
			bs.Acquired[name] = r.key&acquired != 0
		}
	}
}

// Snapshot builds the cut's tree, which shares the cut's small sections.
func (c *Cut) Snapshot() Snapshot {
	s := c.head
	s.Buyers = make(map[BuyerID]BuyerSnapshot, len(c.buyers))
	for _, b := range c.buyers {
		var n [hasAcquired + 1]int // at each has* flag, the records carrying it; at 0, the misses
		for _, r := range c.recs[b.from:b.to] {
			n[r.key&hasLastBid]++
			n[r.key&hasBlockedUntil]++
			n[r.key&hasAcquired]++
		}
		bs := BuyerSnapshot{LastBid: make(map[DatasetID]int, n[hasLastBid]), BlockedUntil: make(map[DatasetID]int, n[hasBlockedUntil]), Acquired: make(map[DatasetID]bool, n[hasAcquired])}
		c.buyer(b, &bs)
		s.Buyers[b.id] = bs
	}
	s.Transactions = c.txs.Append(make([]Transaction, 0, c.txs.Len()))
	return s
}

// WriteCanonical streams Snapshot.Canonical's bytes to w through one
// snapshotChunk-sized buffer, building no tree: each buyer's records pass
// through one set of maps, reused from buyer to buyer, to the walkers.
func (c *Cut) WriteCanonical(w io.Writer) error {
	sc := snapCodec{Codec: binenc.Encoder(append(make([]byte, 0, snapshotChunk+4096), snapshotV1)), w: w}
	sc.head(&c.head)
	index := make(map[BuyerID]cutBuyer, len(c.buyers))
	for _, b := range c.buyers {
		index[b.id] = b
	}
	bs := BuyerSnapshot{LastBid: map[DatasetID]int{}, BlockedUntil: map[DatasetID]int{}, Acquired: map[DatasetID]bool{}}
	sc.buyers = section(&sc, &index, func(b *cutBuyer, bc *binenc.Codec) {
		c.buyer(*b, &bs)
		sc.buyer(&bs, bc)
	})
	sc.Len(c.txs.Len(), 5)
	for tx := range c.txs.All() {
		sc.transaction(&tx)
	}
	sc.flush(0)
	return sc.werr
}
