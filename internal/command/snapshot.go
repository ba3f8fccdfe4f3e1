package command

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/core"
)

// BuyerSnapshot is one buyer account's serializable state.
type BuyerSnapshot struct {
	LastBid      map[DatasetID]int  `json:"last_bid,omitempty"`
	BlockedUntil map[DatasetID]int  `json:"blocked_until,omitempty"`
	Acquired     map[DatasetID]bool `json:"acquired,omitempty"`
	Spent        Money              `json:"spent"`
}

// SellerSnapshot is one seller account's serializable state.
type SellerSnapshot struct {
	Balance  Money       `json:"balance"`
	Datasets []DatasetID `json:"datasets,omitempty"`
}

// Snapshot is the market's full serializable state. Restoring it yields
// a state that behaves identically from that point on (engine randomness
// included), so a snapshot plus the command tail recorded after it
// reconstructs the books exactly. The JSON tags are what checkpoints and
// leaders older than the binary codec wrote, and what tooling prints.
type Snapshot struct {
	Config       Config                      `json:"config"`
	Clock        int                         `json:"clock"`
	Graph        map[string][]string         `json:"graph"`
	Engines      map[DatasetID]core.Snapshot `json:"engines"`
	Owners       map[DatasetID]SellerID      `json:"owners"`
	Buyers       map[BuyerID]BuyerSnapshot   `json:"buyers"`
	Sellers      map[SellerID]SellerSnapshot `json:"sellers"`
	Transactions []Transaction               `json:"transactions,omitempty"`
	Revenue      Money                       `json:"revenue"`
}

// snapshotV1 opens every encoded snapshot. No JSON document starts with
// it, which is how a reader tells these bytes from a JSON snapshot.
const snapshotV1 = 0x01

// snapshotChunk is how much Cut.WriteCanonical buffers between writes.
const snapshotChunk = 64 << 10

// Canonical returns the snapshot's canonical encoding: the bytes a
// checkpoint holds and a follower attaches with, and the ones recovery
// and determinism tests compare. Two markets are in identical states
// exactly when these bytes are identical: every map is written in sorted
// key order (a nil map as an empty one), every integer as a minimal
// varint, every float as its raw bits, and engine snapshots embed the
// full RNG state. The error is always nil: encoding cannot fail.
//
// Layout, after the snapshotV1 byte: config, clock, revenue, graph,
// engines, owners, sellers, buyers, transactions. The sorted engine keys
// and the sorted buyer keys double as string tables: a later dataset or
// buyer is written as its 1-based position there, or as 0 and the string
// when the table lacks it (a withdrawn dataset still in a buyer's books).
func (s Snapshot) Canonical() ([]byte, error) {
	c := snapCodec{Codec: binenc.Encoder([]byte{snapshotV1})}
	c.snapshot(&s)
	return c.B, nil
}

// DecodeSnapshot parses Canonical's bytes. It accepts only the canonical
// form — whatever decodes re-encodes to the same bytes — and a count
// larger than the bytes left is refused before anything is allocated
// for it. The result still has to pass RestoreState: decoding checks
// the encoding, not the market.
func DecodeSnapshot(data []byte) (s Snapshot, err error) {
	if len(data) == 0 || data[0] != snapshotV1 {
		return s, fmt.Errorf("command: snapshot: %w: unknown encoding", binenc.ErrMalformed)
	}
	c := snapCodec{Codec: binenc.Decoder(data[1:])}
	if c.snapshot(&s); c.Done() != nil {
		return Snapshot{}, fmt.Errorf("command: snapshot: %w", c.Err())
	}
	return s, nil
}

// Diff returns "" when the snapshots are equal, otherwise a short
// description naming the top-level sections that differ — precise enough
// to aim a failing recovery test without dumping two full states.
func (s Snapshot) Diff(o Snapshot) string {
	same := func(a, b Snapshot) bool {
		x, _ := a.Canonical()
		y, _ := b.Canonical()
		return bytes.Equal(x, y)
	}
	if same(s, o) {
		return ""
	}
	var diffs []string
	for _, sec := range []struct {
		name string
		a, b Snapshot
	}{
		{"buyers", Snapshot{Buyers: s.Buyers}, Snapshot{Buyers: o.Buyers}},
		{"clock", Snapshot{Clock: s.Clock}, Snapshot{Clock: o.Clock}},
		{"config", Snapshot{Config: s.Config}, Snapshot{Config: o.Config}},
		{"engines", Snapshot{Engines: s.Engines}, Snapshot{Engines: o.Engines}},
		{"graph", Snapshot{Graph: s.Graph}, Snapshot{Graph: o.Graph}},
		{"owners", Snapshot{Owners: s.Owners}, Snapshot{Owners: o.Owners}},
		{"revenue", Snapshot{Revenue: s.Revenue}, Snapshot{Revenue: o.Revenue}},
		{"sellers", Snapshot{Sellers: s.Sellers}, Snapshot{Sellers: o.Sellers}},
		{"transactions", Snapshot{Transactions: s.Transactions}, Snapshot{Transactions: o.Transactions}},
	} {
		if !same(sec.a, sec.b) {
			diffs = append(diffs, sec.name)
		}
	}
	return "snapshots differ in: " + strings.Join(diffs, ", ")
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// snapCodec walks a Snapshot over a binenc.Codec, either way.
type snapCodec struct {
	*binenc.Codec
	w    io.Writer // encoding to a stream: where flush hands the buffer
	werr error

	datasets table[DatasetID]  // the engine keys, once walked
	buyers   table[BuyerID]    // the buyer keys, once walked
	periods  []tableEntry[int] // scratch, reused across per-buyer maps
	flags    []tableEntry[bool]
}

// table is a section's sorted keys serving as a string table, with —
// encoding; decoding it is nil, and yields 0 — each key's 1-based position.
type table[K ~string] struct {
	keys []K
	pos  map[K]uint64
}

// tableEntry is a per-buyer map entry on its way out, and the order those
// are written in: by table position, keys no table holds (position 0)
// first and by name.
type tableEntry[V any] struct {
	pos uint64
	id  DatasetID
	val V
}

func (a tableEntry[V]) compare(b tableEntry[V]) int {
	if a.pos != b.pos || a.pos != 0 {
		return cmp.Compare(a.pos, b.pos)
	}
	return cmp.Compare(a.id, b.id)
}

// flush hands the buffer to w once it holds at least min bytes.
func (c *snapCodec) flush(min int) {
	if c.w == nil || len(c.B) < min {
		return
	}
	if c.werr == nil {
		_, c.werr = c.w.Write(c.B)
	}
	c.B = c.B[:0]
}

func (c *snapCodec) snapshot(s *Snapshot) {
	c.head(s)
	c.buyers = section(c, &s.Buyers, c.buyer)
	c.transactions(&s.Transactions)
}

// head walks every section before the buyers.
func (c *snapCodec) head(s *Snapshot) {
	s.Config.Engine.Binary(c.Codec)
	binenc.Fixed(c.Codec, &s.Config.Seed)
	binenc.Int(c.Codec, &s.Config.Shards)
	binenc.Int(c.Codec, &s.Clock)
	binenc.Int(c.Codec, &s.Revenue)
	section(c, &s.Graph, func(ps *[]string, bc *binenc.Codec) {
		if n := bc.Len(len(*ps), 1); bc.Decoding() {
			*ps = make([]string, n) // in their recorded order, and never nil
		}
		for i := range *ps {
			binenc.Bytes(bc, &(*ps)[i])
		}
	})
	c.datasets = section(c, &s.Engines, (*core.Snapshot).Binary)
	section(c, &s.Owners, func(o *SellerID, bc *binenc.Codec) { binenc.Bytes(bc, o) })
	section(c, &s.Sellers, func(ss *SellerSnapshot, bc *binenc.Codec) {
		binenc.Int(bc, &ss.Balance)
		if n := bc.Len(len(ss.Datasets), 1); bc.Decoding() && n > 0 {
			ss.Datasets = make([]DatasetID, n)
		}
		for i := range ss.Datasets {
			ref(bc, c.datasets, c.datasets.pos[ss.Datasets[i]], &ss.Datasets[i])
		}
	})
}

// buyer walks one buyer's account: its spend and its three maps.
func (c *snapCodec) buyer(bs *BuyerSnapshot, bc *binenc.Codec) {
	period := func(bc *binenc.Codec, v int) int { binenc.Int(bc, &v); return v }
	flag := func(bc *binenc.Codec, v bool) bool { bc.Bool(&v); return v }
	binenc.Int(bc, &bs.Spent)
	datasetMap(c, &bs.LastBid, &c.periods, period)
	datasetMap(c, &bs.BlockedUntil, &c.periods, period)
	datasetMap(c, &bs.Acquired, &c.flags, flag)
}

// transactions walks the log, the last section, once both tables exist.
func (c *snapCodec) transactions(txs *[]Transaction) {
	if n := c.Len(len(*txs), 5); c.Decoding() && n > 0 {
		*txs = make([]Transaction, n)
	}
	for i := range *txs {
		c.transaction(&(*txs)[i])
	}
}

// transaction walks one sale.
func (c *snapCodec) transaction(tx *Transaction) {
	binenc.Int(c.Codec, &tx.Seq)
	ref(c.Codec, c.buyers, c.buyers.pos[tx.Buyer], &tx.Buyer)
	ref(c.Codec, c.datasets, c.datasets.pos[tx.Dataset], &tx.Dataset)
	binenc.Int(c.Codec, &tx.Price)
	binenc.Int(c.Codec, &tx.Period)
	c.flush(snapshotChunk)
}

// section walks a map in sorted key order — decoding refuses any other —
// as a count, then each key and what value walks of its entry. It
// returns the keys as a table; decoded, the map is never nil.
func section[K ~string, V any](c *snapCodec, m *map[K]V, value func(*V, *binenc.Codec)) table[K] {
	keys := sortedKeys(*m)
	if n := c.Len(len(keys), 2); c.Decoding() {
		*m, keys = make(map[K]V, n), make([]K, n)
	}
	var v V // one for the whole walk: value is opaque, so it lives on the heap
	for i := range keys {
		binenc.Bytes(c.Codec, &keys[i])
		if c.Decoding() && i > 0 && keys[i] <= keys[i-1] {
			c.Fail("keys out of order at %q", keys[i])
		}
		v = (*m)[keys[i]]
		if value(&v, c.Codec); c.Decoding() {
			(*m)[keys[i]] = v
		}
		c.flush(snapshotChunk)
	}
	t := table[K]{keys: keys}
	if !c.Decoding() {
		t.pos = make(map[K]uint64, len(keys))
		for i, k := range keys {
			t.pos[k] = uint64(i + 1)
		}
	}
	return t
}

// datasetMap walks one of a buyer's per-dataset maps the same way, its
// keys as refs in tableEntry order; decoded, an empty map is nil.
func datasetMap[V any](c *snapCodec, m *map[DatasetID]V, scratch *[]tableEntry[V], value func(*binenc.Codec, V) V) {
	ents := (*scratch)[:0]
	for id, v := range *m {
		ents = append(ents, tableEntry[V]{c.datasets.pos[id], id, v})
	}
	slices.SortFunc(ents, tableEntry[V].compare)
	*scratch = ents
	n := c.Len(len(ents), 2)
	if c.Decoding() && n > 0 {
		*m = make(map[DatasetID]V, n)
	}
	var prev, e tableEntry[V]
	for i := 0; i < n && c.Err() == nil; i, prev = i+1, e {
		if e = (tableEntry[V]{}); !c.Decoding() {
			e = ents[i]
		}
		if e.pos = ref(c.Codec, c.datasets, e.pos, &e.id); c.Decoding() && i > 0 && prev.compare(e) >= 0 {
			c.Fail("buyer map keys out of order at %q", e.id)
		}
		if e.val = value(c.Codec, e.val); c.Decoding() {
			(*m)[e.id] = e.val
		}
	}
}

// ref walks id as its 1-based position in the table — pos, encoding — or
// as 0 and the string itself when the table lacks it, and only then. It
// returns the position walked.
func ref[K ~string](c *binenc.Codec, t table[K], pos uint64, id *K) uint64 {
	switch c.Uvarint(&pos); {
	case pos == 0:
		if binenc.Bytes(c, id); c.Decoding() {
			if _, found := slices.BinarySearch(t.keys, *id); found {
				c.Fail("%q spelled out though its table holds it", *id)
			}
		}
	case pos > uint64(len(t.keys)):
		c.Fail("reference %d past a table of %d", pos, len(t.keys))
		return 0
	case c.Decoding():
		*id = t.keys[pos-1]
	}
	return pos
}
