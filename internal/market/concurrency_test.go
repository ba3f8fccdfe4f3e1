package market

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
)

// TestConcurrentStormConservesMoney is the -race workhorse: G goroutines
// bid (singly and in batches) on D datasets while Tick, ComposeDataset,
// Stats, Snapshot, and every read endpoint run concurrently. Afterwards
// the ledger must balance exactly: total revenue == sum of seller
// balances == sum of buyer spends == sum of transaction prices.
func TestConcurrentStormConservesMoney(t *testing.T) {
	m := MustNew(Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed:   11,
		Shards: 8,
	})

	sellers := []SellerID{"s0", "s1", "s2", "s3"}
	for _, s := range sellers {
		if err := m.RegisterSeller(s); err != nil {
			t.Fatal(err)
		}
	}
	var datasets []DatasetID
	for i := 0; i < 8; i++ {
		id := DatasetID(fmt.Sprintf("d%d", i))
		if err := m.UploadDataset(sellers[i%len(sellers)], id); err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, id)
	}
	// Two derived products so bids propagate demand to other engines.
	if err := m.ComposeDataset("d0+d1", "d0", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := m.ComposeDataset("d2+d3+d4", "d2", "d3", "d4"); err != nil {
		t.Fatal(err)
	}
	datasets = append(datasets, "d0+d1", "d2+d3+d4")

	const buyers = 16
	var buyerIDs []BuyerID
	for i := 0; i < buyers; i++ {
		id := BuyerID(fmt.Sprintf("b%d", i))
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		buyerIDs = append(buyerIDs, id)
	}

	var wg sync.WaitGroup

	// Bidders: half bid one-by-one, half in batches. Cadence and wait
	// errors are expected mid-storm; corruption is not.
	for g, b := range buyerIDs {
		wg.Add(1)
		go func(g int, b BuyerID) {
			defer wg.Done()
			if g%2 == 0 {
				for i := 0; i < 150; i++ {
					ds := datasets[(g*7+i)%len(datasets)]
					amount := float64(5 + (g*13+i*29)%120)
					m.SubmitBid(b, ds, amount)
				}
				return
			}
			for i := 0; i < 15; i++ {
				reqs := make([]BidRequest, 0, len(datasets))
				for j, ds := range datasets {
					reqs = append(reqs, BidRequest{
						Buyer:   b,
						Dataset: ds,
						Amount:  float64(5 + (g*17+i*31+j)%120),
					})
				}
				m.SubmitBids(reqs)
			}
		}(g, b)
	}

	// Clock: periods advance throughout the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			m.Tick()
		}
	}()

	// Composer: the registry keeps changing shape mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			id := DatasetID(fmt.Sprintf("storm-%d", i))
			if err := m.ComposeDataset(id, datasets[i%8], datasets[(i+1)%8]); err != nil {
				t.Errorf("compose %s: %v", id, err)
			}
		}
	}()

	// Readers: stats, snapshots, and listings race the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, ds := range datasets {
				m.Stats(ds)
			}
			m.Datasets()
			m.Revenue()
			m.Transactions()
			m.Period()
			m.WaitRemaining(buyerIDs[i%buyers], datasets[i%len(datasets)])
			m.SellerBalance(sellers[i%len(sellers)])
			m.SellerDatasets(sellers[i%len(sellers)])
			if i%10 == 0 {
				m.Snapshot()
			}
		}
	}()

	wg.Wait()

	revenue := m.Revenue()
	var sellerTotal Money
	for _, s := range sellers {
		bal, err := m.SellerBalance(s)
		if err != nil {
			t.Fatal(err)
		}
		sellerTotal += bal
	}
	if sellerTotal != revenue {
		t.Fatalf("seller balances %v != revenue %v (ledger leak)", sellerTotal, revenue)
	}
	var buyerTotal Money
	for _, b := range buyerIDs {
		spent, err := m.BuyerSpend(b)
		if err != nil {
			t.Fatal(err)
		}
		buyerTotal += spent
	}
	if buyerTotal != revenue {
		t.Fatalf("buyer spends %v != revenue %v", buyerTotal, revenue)
	}
	var txTotal Money
	seen := make(map[int]bool)
	for _, tx := range m.Transactions() {
		txTotal += tx.Price
		if seen[tx.Seq] {
			t.Fatalf("duplicate transaction seq %d", tx.Seq)
		}
		seen[tx.Seq] = true
	}
	if txTotal != revenue {
		t.Fatalf("transaction total %v != revenue %v", txTotal, revenue)
	}
	if revenue <= 0 {
		t.Fatal("storm raised no revenue")
	}
}

// TestSubmitBidsMatchesSubmitBid pins batch semantics: a batch over
// disjoint (buyer, dataset) pairs must produce exactly the decisions the
// equivalent sequential SubmitBid calls produce on a twin market.
func TestSubmitBidsMatchesSubmitBid(t *testing.T) {
	build := func() *Market {
		m := MustNew(Config{
			Engine: core.Config{
				Candidates:    auction.LinearGrid(10, 100, 10),
				EpochSize:     4,
				BidsPerPeriod: 1,
				MinBid:        1,
			},
			Seed: 21,
		})
		if err := m.RegisterSeller("s"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := m.UploadDataset("s", DatasetID(fmt.Sprintf("d%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			if err := m.RegisterBuyer(BuyerID(fmt.Sprintf("b%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	batch, seq := build(), build()

	var reqs []BidRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, BidRequest{
			Buyer:   BuyerID(fmt.Sprintf("b%d", i)),
			Dataset: DatasetID(fmt.Sprintf("d%d", i)),
			Amount:  float64(20 + i*15),
		})
	}
	got := batch.SubmitBids(reqs)
	if len(got) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(got), len(reqs))
	}
	for i, r := range reqs {
		want, werr := seq.SubmitBid(r.Buyer, r.Dataset, r.Amount)
		if got[i].Err != nil || werr != nil {
			t.Fatalf("bid %d errored: batch=%v seq=%v", i, got[i].Err, werr)
		}
		if got[i].Decision != want {
			t.Fatalf("bid %d: batch %+v != sequential %+v", i, got[i].Decision, want)
		}
	}
	if batch.Revenue() != seq.Revenue() {
		t.Fatalf("revenue diverged: %v vs %v", batch.Revenue(), seq.Revenue())
	}

	// Errors surface per-entry without aborting the batch.
	res := batch.SubmitBids([]BidRequest{
		{Buyer: "ghost", Dataset: "d0", Amount: 10},
		{Buyer: "b0", Dataset: "nope", Amount: 10},
		{Buyer: "b0", Dataset: "d1", Amount: -1},
	})
	for i, want := range []error{ErrUnknownBuyer, ErrUnknownDataset, ErrBadBid} {
		if res[i].Err == nil {
			t.Fatalf("entry %d: no error, want %v", i, want)
		}
	}
	if out := batch.SubmitBids(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestUndecodableBatchFailsEveryEntry: a bid_batch body that does not
// decode — a NaN entry, a truncated body — fails every result slot with
// ErrMalformed and moves nothing. A slot left zero would read as a
// success.
func TestUndecodableBatchFailsEveryEntry(t *testing.T) {
	m := setupBasic(t)
	body, err := command.EncodeBinary(command.BidBatch{Bids: []command.SubmitBid{
		{Buyer: "carol", Dataset: "weather", Amount: 150},
		{Buyer: "carol", Dataset: "traffic", Amount: math.NaN()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{body, body[:len(body)-1]} {
		res := make([]BidResult, 2)
		if _, err := m.ApplyEncodedCtx(context.Background(), b, res); err != nil {
			t.Fatalf("a batch answered %v; its entries carry its outcome", err)
		}
		for i, r := range res {
			if !errors.Is(r.Err, command.ErrMalformed) {
				t.Errorf("entry %d of %x: %+v, want ErrMalformed", i, b, r)
			}
		}
	}
	if s, _ := m.Stats("weather"); s.Bids != 0 {
		t.Fatalf("an undecodable batch reached the engine: %+v", s)
	}
}

// TestRegistrationRacesReaders is the -race check on the buyer and
// seller registries: one writer registers 5 000 sellers (some uploading
// a dataset) and 5 000 buyers while readers hammer ids on both sides of
// the writer's frontier. A read of an id answers "unknown" or with a
// whole cell — never a half-built one, never a panic — and because
// registrations are published in order, a reader that has seen
// participant k never again finds an earlier one unknown.
func TestRegistrationRacesReaders(t *testing.T) {
	const n, readers = 5000, 4
	m := MustNew(benchConfig())
	buyers := make([]BuyerID, n)
	sellers := make([]SellerID, n)
	datasets := make([]DatasetID, n)
	for i := range buyers {
		buyers[i] = BuyerID(fmt.Sprintf("b%d", i))
		sellers[i] = SellerID(fmt.Sprintf("s%d", i))
		datasets[i] = DatasetID(fmt.Sprintf("d%d", i))
	}

	// readOne reads participant i every way there is and reports whether
	// it was registered yet.
	readOne := func(i int) (buyerKnown, sellerKnown bool) {
		spent, err := m.BuyerSpend(buyers[i])
		switch {
		case err == nil:
			buyerKnown = true
			owns, oerr := m.Owns(buyers[i], datasets[i])
			wait, werr := m.WaitRemaining(buyers[i], datasets[i])
			if spent != 0 || owns || wait != 0 || oerr != nil || werr != nil {
				t.Errorf("buyer %s, who never bid: spent %v owns %v (%v) wait %d (%v)", buyers[i], spent, owns, oerr, wait, werr)
			}
		case !errors.Is(err, ErrUnknownBuyer):
			t.Errorf("BuyerSpend(%s): %v", buyers[i], err)
		}
		ds, err := m.SellerDatasets(sellers[i])
		switch {
		case err == nil:
			sellerKnown = true
			bal, berr := m.SellerBalance(sellers[i])
			if bal != 0 || berr != nil || ds == nil || len(ds) > 1 || (len(ds) == 1 && ds[0] != datasets[i]) {
				t.Errorf("seller %s, who sold nothing: balance %v (%v) datasets %v", sellers[i], bal, berr, ds)
			}
		case !errors.Is(err, ErrUnknownSeller):
			t.Errorf("SellerDatasets(%s): %v", sellers[i], err)
		}
		return buyerKnown, sellerKnown
	}

	var frontier atomic.Int64 // participants the writer has finished
	var known, unknown atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for step := r; frontier.Load() < n; step += 7 {
				// Around the frontier: mostly just-registered and
				// about-to-be-registered ids, some far on either side.
				i := (int(frontier.Load()) + step%64 - 32 + n) % n
				if step%16 == 0 {
					i = step % n
				}
				buyerKnown, sellerKnown := readOne(i)
				if !(buyerKnown || sellerKnown) {
					unknown.Add(1)
					continue
				}
				known.Add(1)
				if i == 0 {
					continue
				}
				// Seller i registers before buyer i, and both after
				// everyone below i.
				if b, s := readOne(i - 1); !b || !s {
					t.Errorf("participant %d is visible but %d is not (buyer %v, seller %v)", i, i-1, b, s)
				}
				if _, s := readOne(i); buyerKnown && !s {
					t.Errorf("buyer %d is visible but seller %d, registered first, is not", i, i)
				}
			}
		}(r)
	}
	must := func(err error) {
		if err != nil {
			frontier.Store(n) // release the readers
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		must(m.RegisterSeller(sellers[i]))
		if i%16 == 0 { // the catalogue view is copy-on-write: keep it small
			must(m.UploadDataset(sellers[i], datasets[i]))
		}
		must(m.RegisterBuyer(buyers[i]))
		frontier.Store(int64(i + 1))
	}
	wg.Wait()
	t.Logf("racing reads: %d found a participant, %d found none yet", known.Load(), unknown.Load())
	for i := 0; i < n; i++ {
		if b, s := readOne(i); !b || !s {
			t.Fatalf("participant %d missing after the writer finished (buyer %v, seller %v)", i, b, s)
		}
	}
}

// TestRegistryGrowsUnderReaders is the -race check on the registry's
// growth: one writer registers 2 048 buyers and as many sellers, so each
// table doubles from its first 8 slots to 4 096, while readers sweep,
// without the writer mutex, every name registered before their sweep
// began and must find each one, whether a probe lands in the table being
// replaced or in the doubled one, and probe names the writer is about to
// register. A slot filled by a plain store trips the race detector; a
// doubled table published before it holds every cell fails this test by
// name.
func TestRegistryGrowsUnderReaders(t *testing.T) {
	const n, readers = 2048, 2
	m := MustNew(benchConfig())
	buyers, sellers := make([]BuyerID, n), make([]SellerID, n)
	for i := range buyers {
		buyers[i], sellers[i] = BuyerID(fmt.Sprintf("b%d", i)), SellerID(fmt.Sprintf("s%d", i))
	}
	var registered atomic.Int64
	var sweeps atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; sweeps.Add(1) {
				k := int(registered.Load())
				done = k == n
				for i := range k {
					if _, err := m.BuyerSpend(buyers[i]); err != nil {
						t.Errorf("buyer %d of %d registered: %v", i, k, err)
						return
					}
					if _, err := m.SellerBalance(sellers[i]); err != nil {
						t.Errorf("seller %d of %d registered: %v", i, k, err)
						return
					}
					// A name past the frontier, found or not: its probe
					// meets the slots the writer is filling.
					if j := k + i%8; j < n {
						m.BuyerSpend(buyers[j])
						m.SellerBalance(sellers[j])
					}
				}
			}
		}()
	}
	var first int
	for i := 0; i < n; i++ {
		if err := cmp.Or(m.RegisterBuyer(buyers[i]), m.RegisterSeller(sellers[i])); err != nil {
			registered.Store(n) // release the readers
			t.Fatal(err)
		}
		if i == 0 {
			first = len(*m.vw.buyers.slots.Load())
		}
		registered.Store(int64(i + 1))
	}
	wg.Wait()
	if last := len(*m.vw.buyers.slots.Load()); last < 8*first {
		t.Fatalf("the buyer table grew from %d to %d slots: want at least three doublings", first, last)
	}
	t.Logf("%d sweeps by %d readers", sweeps.Load(), readers)
}

// TestSharedLogAndBitsetsUnderReaders is the -race check on the two
// structures readers share with the writer without a copy: the books
// cell, whose consistent read is a prefix of the state's own transaction
// log, run table and name tables, and the buyer cells' ownership
// bitsets. One writer sells every dataset of a catalogue that grows from
// 60 to 200 names mid-storm to 64 buyers — half of whom skip the first
// 64 datasets, so their first purchase lands past word 0 — and to one
// buyer registered per dataset mid-storm, so the buyer table grows under
// the readers; from the 65th dataset on it ticks before each one, so the
// sales span 137 periods and the run table grows and moves under the
// readers too. Readers spell every sale of a read through TxLog.At, spin
// on the newest sale of a fresh read between those sweeps, and loop over
// Transactions, Totals and Owns. Every read of the books adds up
// (Σ price == revenue == spend == balances, over exactly the sales it
// holds) and stays inside its tables (a reader's panic fails the test by
// name), every observed log — At-spelled or copied — is a prefix of the
// final one, every newest sale a reader spun on has the final log's
// period, and no ownership bit, once published, is ever lost to a
// bitset growing or the index mirror being republished.
//
// The recovered subtest runs the same storm on a market built by
// FromState over a state in which every buyer already owns a dataset and
// waits on two more, four names off the sold catalogue: its cells come
// out of slabs, so the readers race carved one-word bitsets that grow
// and carved waits that move when the writer gives each buyer a third
// wait, before the ticks; every reader also checks that the two earlier
// waits never change, as the clock runs past them.
func TestSharedLogAndBitsetsUnderReaders(t *testing.T) {
	t.Run("live", func(t *testing.T) { sharedLogAndBitsetsUnderReaders(t, false) })
	t.Run("recovered", func(t *testing.T) { sharedLogAndBitsetsUnderReaders(t, true) })
}

func sharedLogAndBitsetsUnderReaders(t *testing.T, recovered bool) {
	const buyers, datasets, seeded, readers = 64, 200, 60, 4
	m := MustNew(benchConfig())
	bs, ds := populate(t, m, buyers, seeded)
	var held []DatasetID            // owned, waited on, waited on, waited on mid-storm
	until := make([][3]int, buyers) // per buyer, the first period it may bid on held[1:] again
	if recovered {
		held = []DatasetID{"held-0", "held-1", "held-2", "held-3"}
		for _, d := range held {
			if err := m.UploadDataset("s", d); err != nil {
				t.Fatal(err)
			}
		}
		for b := range bs {
			for k, amount := range []float64{150, 5, 5} { // a win, then two losses
				if _, err := m.SubmitBid(bs[b], held[k], amount); err != nil {
					t.Fatal(err)
				}
			}
			for k := range 2 {
				wait, _ := m.WaitRemaining(bs[b], held[k+1])
				if until[b][k] = m.Period() + wait; wait == 0 {
					t.Fatalf("%s has no wait on %s: there is no wait to carve", bs[b], held[k+1])
				}
			}
		}
		m = FromState(m.st)
	}
	for i := seeded; i < datasets; i++ { // uploaded mid-storm
		ds = append(ds, DatasetID(fmt.Sprintf("late-%03d", i)))
	}
	skips := func(b, d int) bool { return b >= buyers/2 && d < 64 }

	var done atomic.Bool
	var wg sync.WaitGroup
	longest := make([][]Transaction, readers)
	newest := make([][]int, readers) // per sale, 1 + the period a reader spun on, 0 if none
	// spin is what the odd readers do: fresh reads in a tight loop, each
	// spelling its newest sale — the reads that meet a sale the instant
	// it is published, with its run.
	spin := func(r int) {
		for !done.Load() {
			b := m.vw.books.load()
			n := b.txs.Len()
			if n == 0 {
				continue
			}
			for len(newest[r]) < n {
				newest[r] = append(newest[r], 0)
			}
			p := b.txs.At(n-1).Period + 1
			if q := newest[r][n-1]; q != 0 && q != p {
				t.Errorf("reader %d read sale %d in period %d, then in %d", r, n, q-1, p-1)
				return
			}
			newest[r][n-1] = p
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { // a view whose tables miss its sales reads out of bounds
				if p := recover(); p != nil {
					t.Errorf("reader %d: %v", r, p)
				}
			}()
			// keep holds a log to the longest one seen: on their common
			// prefix they agree, and the longer is kept.
			keep := func(log []Transaction, how string) bool {
				short, long := log, longest[r]
				if len(short) > len(long) {
					short, long = long, short
				}
				if !slices.Equal(short, long[:len(short)]) {
					t.Errorf("a log of %d sales and one of %d disagree on their common prefix (%s)", len(log), len(longest[r]), how)
					return false
				}
				if len(log) > len(longest[r]) {
					longest[r] = slices.Clone(log)
				}
				return true
			}
			if r%2 == 1 {
				spin(r)
				return
			}
			var spelled []Transaction
			for step := 0; !done.Load(); step++ {
				// One read of the cell: its sums are the sums of its own log.
				b := m.vw.books.load()
				var sum Money
				spelled = spelled[:0]
				for i := range b.txs.Len() {
					tx := b.txs.At(i)
					if sum += tx.Price; tx.Seq != i+1 || tx.Buyer == "" || tx.Dataset == "" {
						t.Errorf("view of %d sales: transaction %d is %+v", b.txs.Len(), i, tx)
						return
					}
					spelled = append(spelled, tx)
				}
				if sum != b.revenue || sum != b.spent || sum != b.balances {
					t.Errorf("view of %d sales: Σ price %v, revenue %v, spend %v, balances %v", b.txs.Len(), sum, b.revenue, b.spent, b.balances)
					return
				}
				if !keep(spelled, "At") {
					return
				}

				// The public copy, then Totals: the books only grow.
				txs := m.Transactions()
				if revenue, _, _ := m.Totals(); revenue < sum {
					t.Errorf("revenue went back from %v to %v", sum, revenue)
					return
				}
				if !keep(txs, "Transactions") {
					return
				}

				// Every sale but the newest is published whole — the books
				// come first, the winner's bit after — so a stride of them,
				// from a moving start, must all be owned.
				for i := step % 37; i < len(txs)-1; i += 37 {
					if owns, err := m.Owns(txs[i].Buyer, txs[i].Dataset); err != nil || !owns {
						t.Errorf("with %d sales published, Owns(%s, %s) = %v, %v", len(txs), txs[i].Buyer, txs[i].Dataset, owns, err)
						return
					}
				}

				// The held waits, while the third moves each buyer's waits
				// and the clock runs: what remains is what was set, less
				// the periods gone by around the read.
				if j := step % buyers; held != nil {
					for k := range 2 {
						before := m.Period()
						got, err := m.WaitRemaining(bs[j], held[k+1])
						after := m.Period()
						if err != nil || got < max(0, until[j][k]-after) || got > max(0, until[j][k]-before) {
							t.Errorf("WaitRemaining(%s, %s) = %d, %v in periods %d to %d; want the wait until %d", bs[j], held[k+1], got, err, before, after, until[j][k])
							return
						}
					}
					_, _ = m.WaitRemaining(bs[j], held[3])
				}
			}
		}(r)
	}

	sales := m.TxCount() // the held wins
	for d := range ds {
		if held != nil && d < buyers { // a third wait, which moves the buyer's waits
			dec, err := m.SubmitBid(bs[d], held[3], 5)
			if err != nil || dec.WaitPeriods == 0 {
				t.Errorf("bid by %s on %s: %+v, %v; want a loss and a wait", bs[d], held[3], dec, err)
			}
			until[d][2] = m.Period() + dec.WaitPeriods
		}
		if d >= buyers { // a new period: the next sales start a run
			m.Tick()
		}
		if d >= seeded {
			if err := m.UploadDataset("s", ds[d]); err != nil {
				t.Error(err)
				break
			}
		}
		for b := range bs {
			if skips(b, d) {
				continue
			}
			// Above the grid's top candidate: every bid wins.
			if dec, err := m.SubmitBid(bs[b], ds[d], 150); err != nil || !dec.Allocated {
				t.Errorf("bid by %s on %s: %+v, %v; want a win", bs[b], ds[d], dec, err)
			}
			sales++
		}
		late := BuyerID(fmt.Sprintf("late-%03d", d)) // the buyer table grows mid-storm
		if err := m.RegisterBuyer(late); err != nil {
			t.Error(err)
			break
		}
		if dec, err := m.SubmitBid(late, ds[d], 150); err != nil || !dec.Allocated {
			t.Errorf("bid by %s on %s: %+v, %v; want a win", late, ds[d], dec, err)
		}
		sales++
	}
	done.Store(true)
	wg.Wait()

	final := m.Transactions()
	if len(final) != sales || m.TxCount() != sales {
		t.Fatalf("%d transactions (TxCount %d) after %d sales", len(final), m.TxCount(), sales)
	}
	if periods := final[len(final)-1].Period - final[0].Period + 1; periods != datasets-buyers+1 {
		t.Fatalf("the sales span %d periods, want %d", periods, datasets-buyers+1)
	}
	spun := 0
	for r, log := range longest {
		if !slices.Equal(log, final[:len(log)]) {
			t.Errorf("reader %d's longest log, %d sales, is not a prefix of the final one", r, len(log))
		}
		for i, p := range newest[r] {
			if p != 0 && p-1 != final[i].Period {
				t.Errorf("reader %d read sale %d, the newest, in period %d; the final log has %d", r, i+1, p-1, final[i].Period)
			}
			if p != 0 {
				spun++
			}
		}
	}
	t.Logf("readers' longest logs: %d %d %d %d of %d sales; %d newest sales spun on", len(longest[0]), len(longest[1]), len(longest[2]), len(longest[3]), sales, spun)
	index := *m.vw.index.Load()
	for b := range bs {
		for d := range ds {
			if owns, err := m.Owns(bs[b], ds[d]); err != nil || owns == skips(b, d) {
				t.Fatalf("Owns(%s, %s) = %v, %v; want %v", bs[b], ds[d], owns, err, !skips(b, d))
			}
		}
		if held == nil {
			continue
		}
		if owns, err := m.Owns(bs[b], held[0]); err != nil || !owns {
			t.Fatalf("Owns(%s, %s) = %v, %v; want true", bs[b], held[0], owns, err)
		}
		for k, want := range until[b] {
			if got := m.vw.buyers.get(bs[b]).blockedUntil(index[held[k+1]]); got != want {
				t.Fatalf("%s may bid on %s again from period %d; want %d", bs[b], held[k+1], got, want)
			}
		}
	}
}
