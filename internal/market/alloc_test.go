package market

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/rng"
)

// These assertions pin the zero-alloc audit of the bid hot path: the
// market-shell work around command.Apply — view publication — must not
// allocate for the common case (a losing bid on a base dataset). X9
// measured the view publication at ~540 ns and +3 allocs per bid before
// the audit; the seqlock stats cells and the in-place wait table bring
// the shell's own contribution to zero.

// allocMarket builds an uninstrumented market with one base dataset and
// one registered buyer that has already bid once (so every map the bid
// path touches is warm).
func allocMarket(t testing.TB) *Market {
	t.Helper()
	m := MustNew(benchConfig())
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBid("b", "d", 5); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPublishBidZeroAlloc asserts the per-bid view publication
// allocates nothing: for a losing bid on a base dataset, the seqlock
// stats-cell store and the wait-table write; for a winning one, on warm
// cells, also the books cell's in-place store, the winner's ownership
// bit and spend, and the seller's balance. The books were republished as
// a fresh view per sale once — one allocation per sale, which is most
// bids where buyers bid what the data is worth to them (three in four on
// the repository benchmark).
func TestPublishBidZeroAlloc(t *testing.T) {
	m := allocMarket(t)
	ev := command.Event{
		Kind:     command.EvBidDecided,
		Buyer:    "b",
		Dataset:  "d",
		Amount:   5,
		Period:   3,
		Decision: Decision{WaitPeriods: 2},
	}
	if n := testing.AllocsPerRun(200, func() { m.publishBid(&ev) }); n != 0 {
		t.Fatalf("publishBid allocates %.1f times per losing bid, want 0", n)
	}

	// Every winner already owns a dataset, so its ownership bitset
	// exists. The measured sales are all on the state's log before the
	// first is published, as the rest of a group is while its first
	// events publish; the books catch up one sale per call.
	const runs = 200
	if err := m.UploadDataset("s", "e"); err != nil {
		t.Fatal(err)
	}
	wins := make([]command.Event, 0, runs+1)
	for i := 0; i <= runs; i++ {
		id := BuyerID(fmt.Sprintf("winner-%03d", i))
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		// Above the grid's top candidate: every bid wins.
		if d, err := m.SubmitBid(id, "d", 150); err != nil || !d.Allocated {
			t.Fatalf("bid by %s on d: %+v, %v; want a win", id, d, err)
		}
		body, _ := command.EncodeBinary(command.SubmitBid{Buyer: id, Dataset: "e", Amount: 150})
		evs, err := command.ApplyEncoded(m.st, body, nil)
		if err != nil || !evs[0].Decision.Allocated {
			t.Fatalf("bid by %s on e: %+v, %v; want a win", id, evs, err)
		}
		wins = append(wins, evs[0])
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { m.publishBid(&wins[next]); next++ }); n != 0 {
		t.Fatalf("publishBid allocates %.1f times per winning bid, want 0", n)
	}
	if got, want := m.TxCount(), m.st.TxCount(); got != want {
		t.Fatalf("%d sales published of the state's %d", got, want)
	}
	if revenue, spent, balances := m.Totals(); revenue != m.st.Revenue() || spent != revenue || balances != revenue {
		t.Fatalf("books: revenue %v, spent %v, balances %v; the state's revenue %v", revenue, spent, balances, m.st.Revenue())
	}
}

// TestDerivedBidSteadyStateAllocs: a losing bid on a derived dataset —
// its demand propagated to every leaf, each leaf's stats republished —
// allocates nothing once the buyer has a record on it. Resolving the
// leaves from the provenance graph on every bid cost a copy of the
// parent list, a seen map, a slice and a closure; a derived dataset's
// leaves never change, so the state resolves them once. The tick is
// entered as its encoding, so its event lands in the market's scratch.
func TestDerivedBidSteadyStateAllocs(t *testing.T) {
	m := allocMarket(t)
	if err := m.UploadDataset("s", "e"); err != nil {
		t.Fatal(err)
	}
	if err := m.ComposeDataset("de", "d", "e"); err != nil {
		t.Fatal(err)
	}
	tick, err := command.EncodeBinary(command.Tick{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := m.ApplyEncodedCtx(context.Background(), tick, nil); err != nil {
			t.Fatal(err)
		}
		if d, err := m.SubmitBid("b", "de", 5); err != nil || d.Allocated || d.WaitPeriods > 1 {
			t.Fatalf("bid on de: %+v, %v; want a loss with at most a one-period wait", d, err)
		}
	}
	run() // the buyer's record on de
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("a tick and a losing bid on a derived dataset allocate %.1f times, want 0", n)
	}
}

// TestBidHotPathSteadyStateAllocs drives whole losing bids — cadence
// check, engine evaluation with the full Time-Shield wait-period replay,
// an epoch close every eighth bid, view publication — through SubmitBid
// and asserts the steady state is allocation-free per bid. Each run
// pays one Tick and then bids once per buyer.
func TestBidHotPathSteadyStateAllocs(t *testing.T) {
	const buyers, teachers = 64, 4000
	cfg := Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  8,
			// More than the replay's 64-epoch cap, so every loser waits
			// exactly one period and may bid again after the next Tick.
			BidsPerPeriod: 1024,
			MinBid:        1,
		},
		Seed:   42,
		Shards: 8,
	}
	m := MustNew(cfg)
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	// Five hundred epochs of one-shot buyers at 80 pin the weight on the
	// high candidates, so the low bids measured below keep losing (the
	// engine needs ~450 all-low epochs per 500 taught to climb back) and
	// each pays for a replay that runs to the cap.
	for i := 0; i < teachers; i++ {
		id := BuyerID(fmt.Sprintf("teacher%d", i))
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SubmitBid(id, "d", 80); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]BuyerID, buyers)
	for i := range ids {
		ids[i] = BuyerID(string(rune('A'+i%26)) + string(rune('a'+i/26)))
		if err := m.RegisterBuyer(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	bidAll := func() {
		m.Tick()
		for _, id := range ids {
			if d, err := m.SubmitBid(id, "d", 12); err != nil || d.Allocated || d.WaitPeriods != 1 {
				t.Fatalf("bid by %s: %+v, %v; want a loss with a one-period wait", id, d, err)
			}
		}
	}
	bidAll() // warms every per-buyer map
	before, _ := m.Stats("d")
	allocs := testing.AllocsPerRun(100, bidAll)
	// Budget: slack over the zero a run needs. Anything above ~2 means a
	// per-bid allocation crept back into the shell or the engine.
	if allocs > 3 {
		perBid := allocs / buyers
		t.Fatalf("hot path allocates %.2f per tick+%d bids (%.3f per bid), want <= 3 per run", allocs, buyers, perBid)
	}
	t.Logf("%.2f allocs per tick+%d-bid run", allocs, buyers)
	if after, _ := m.Stats("d"); after.Epochs-before.Epochs != 101*buyers/8 {
		t.Fatalf("%d epochs closed inside the measurement, want %d", after.Epochs-before.Epochs, 101*buyers/8)
	}
}

// liveHeap is the live heap after two collections (the second finishes
// the first's sweep), as the repository benchmark's heap_live_mb reads it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStateBytesPerDecidedBid is the footprint budget: what one decided
// bid leaves live in a serving market — its (buyer, dataset) record, the
// sale in the transaction log if it won, the winner's ownership bit —
// over the wire_bid_durable workload's market (4 096 buyers, 64
// datasets, the benchmark's engine, a tick every 512 ops, each pair bid
// on at most once, three bids in four winning). Bytes per decided bid is
// how many bids one arbiter can remember, so it is budgeted like an
// allocation count. The history is seeded, so the figure repeats to
// ±0.1 B. It has read 306 → 116 → 68 → 59 → 43 → 36 B: three
// string-keyed maps per buyer, every acquisition again in a per-buyer
// sync.Map, the log again in the books view and each request's strings
// pinned as keys (306); one map of pointer-free records per buyer and one log of
// Transactions (116); each buyer's records in one slice sorted by
// dataset index and each sale in a 24-byte index record (68); each sale
// in 16 bytes, its period in a run table, and each running wait keyed
// by dataset index (59); each record's two periods and each running
// wait's end in 32 bits, bounded by command.MaxPeriod (43); the dataset
// index in 24 bits beside the record's flags, bounded by
// command.MaxDatasets (36). The budget is 1.25× the last.
func TestStateBytesPerDecidedBid(t *testing.T) {
	const buyers, datasets, bids, tickEvery = 4096, 64, 150_000, 512
	const measured, budget = 36, 45 // bytes per decided bid
	m := MustNew(Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(1, 200, 40),
			EpochSize:     8,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed:   42,
		Shards: DefaultShards,
	})
	bs, ds := populate(t, m, buyers, datasets)
	r := rng.New(42)
	before := liveHeap()
	for k := 0; k < bids; k++ {
		if k%tickEvery == tickEvery-1 {
			m.Tick()
		}
		// The benchmark's walk: each (buyer, dataset) pair once before any
		// repeats. The strings are built per bid, as a decoded request's
		// are: the market must not keep them.
		b, d := k%buyers, (k%buyers+k/buyers)%datasets
		if _, err := m.SubmitBid(BuyerID(fmt.Sprint(bs[b])), DatasetID(fmt.Sprint(ds[d])), math.Max(1, r.Normal(100, 30))); err != nil {
			t.Fatalf("bid %d by %s on %s: %v", k, bs[b], ds[d], err)
		}
	}
	perBid := float64(liveHeap()-before) / bids
	t.Logf("%.1f live bytes per decided bid over %d bids, %d of them sales", perBid, bids, m.TxCount())
	if perBid > budget {
		t.Fatalf("%.1f live bytes per decided bid, budget %d (1.25 × the %d B the 12-byte record measured)", perBid, budget, measured)
	}
	runtime.KeepAlive(m)
}

// registrationBytes registers n buyers and n sellers, then returns the
// bytes allocated per RegisterBuyer and per RegisterSeller over the next
// window of each (IDs are built beforehand, so the figure is the
// market's own).
func registrationBytes(t *testing.T, n, window int) (perBuyer, perSeller float64) {
	t.Helper()
	m := MustNew(benchConfig())
	buyers := make([]BuyerID, n+window)
	sellers := make([]SellerID, n+window)
	for i := range buyers {
		buyers[i] = BuyerID(fmt.Sprintf("buyer-%06d", i))
		sellers[i] = SellerID(fmt.Sprintf("seller-%06d", i))
	}
	for i := 0; i < n; i++ {
		if err := m.RegisterBuyer(buyers[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterSeller(sellers[i]); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(register func(i int) error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := n; i < n+window; i++ {
			if err := register(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(window)
	}
	perBuyer = measure(func(i int) error { return m.RegisterBuyer(buyers[i]) })
	perSeller = measure(func(i int) error { return m.RegisterSeller(sellers[i]) })
	return perBuyer, perSeller
}

// TestStructuralPublishCostIsFlat pins O(1) registration publication: a
// registration must cost the same whether 200 or 20 000 participants
// came before it. The buyers and sellers views were copy-on-write maps
// once, re-copied whole per registration — this test read 874 216 B per
// RegisterBuyer at n = 20 000 against 13 326 B at n = 200 then — which
// made seeding and every journal replay quadratic in the population.
// Bytes, not time, so the bound holds on a noisy host; the window is
// long enough to spread the state's own amortised map growth.
func TestStructuralPublishCostIsFlat(t *testing.T) {
	const small, large, window = 200, 20000, 200
	smallBuyer, smallSeller := registrationBytes(t, small, window)
	largeBuyer, largeSeller := registrationBytes(t, large, window)
	t.Logf("bytes per RegisterBuyer: %.0f at n=%d, %.0f at n=%d", smallBuyer, small, largeBuyer, large)
	t.Logf("bytes per RegisterSeller: %.0f at n=%d, %.0f at n=%d", smallSeller, small, largeSeller, large)
	if largeBuyer > 2*smallBuyer {
		t.Errorf("RegisterBuyer allocates %.0f B at n=%d against %.0f B at n=%d: publication grows with the population", largeBuyer, large, smallBuyer, small)
	}
	if largeSeller > 2*smallSeller {
		t.Errorf("RegisterSeller allocates %.0f B at n=%d against %.0f B at n=%d: publication grows with the population", largeSeller, large, smallSeller, small)
	}
}

// TestViewReadsDoNotAllocate pins the read side of the registries: a
// point read of a known buyer, seller or dataset — one registry lookup
// and a few atomic loads — allocates nothing.
func TestViewReadsDoNotAllocate(t *testing.T) {
	m := allocMarket(t)
	// IDs built at run time: a constant converts to the registry's key
	// interface for free and would hide a boxing allocation.
	b, s, d := BuyerID(fmt.Sprint("b")), SellerID(fmt.Sprint("s")), DatasetID(fmt.Sprint("d"))
	for name, read := range map[string]func(){
		"Owns":          func() { m.Owns(b, d) },
		"WaitRemaining": func() { m.WaitRemaining(b, d) },
		"BuyerSpend":    func() { m.BuyerSpend(b) },
		"SellerBalance": func() { m.SellerBalance(s) },
		"Stats":         func() { m.Stats(d) },
	} {
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}

// BenchmarkSubmitBidWideBuyer is the time side of the sorted pair
// records: a first bid on a dataset moves the buyer's later records, so
// its cost grows with the buyer's record count. One buyer bids once on
// every dataset of the catalogue, in a seeded random order; when it has
// bid on them all, a fresh buyer, registered off the clock, takes over.
// The catalogue is built before the timer.
func BenchmarkSubmitBidWideBuyer(b *testing.B) {
	for _, datasets := range []int{64, 4096} {
		b.Run(fmt.Sprintf("datasets=%d", datasets), func(b *testing.B) {
			m := MustNew(benchConfig())
			_, ds := populate(b, m, 0, datasets)
			order := rng.New(42).Perm(datasets)
			var buyer BuyerID
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if k%datasets == 0 {
					b.StopTimer()
					buyer = BuyerID(fmt.Sprintf("wide-%d", k/datasets))
					if err := m.RegisterBuyer(buyer); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := m.SubmitBid(buyer, ds[order[k%datasets]], 50); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/bid")
		})
	}
}

// ownersAndWaiters returns the state of a market of n buyers over eight
// datasets, each buyer owning two of them and blocked from bidding on two
// others by running Time-Shield waits.
func ownersAndWaiters(t *testing.T, n int) *command.State {
	t.Helper()
	m := MustNew(benchConfig())
	bs, ds := populate(t, m, n, 8)
	for b := range bs {
		for k, amount := range []float64{150, 150, 5, 5} { // above the grid's top candidate, then below its bottom
			if _, err := m.SubmitBid(bs[b], ds[(b+k)%len(ds)], amount); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m.st
}

// TestFromStateAllocsPerBuyer pins the cost of deriving a recovered
// market's views: cells, ownership bitsets and waits come from one slab
// each, and the registry is sized once for the population, so what
// FromState allocates does not grow with the buyers. While each was
// allocated on its own, FromState read 7.4 allocations per buyer over
// these states; with cells from slabs but a sync.Map registry, 2.4.
func TestFromStateAllocsPerBuyer(t *testing.T) {
	const budget = 0.05 // allocations per buyer
	for _, n := range []int{1000, 10000} {
		st := ownersAndWaiters(t, n)
		var m *Market
		perBuyer := testing.AllocsPerRun(3, func() { m = FromState(st) }) / float64(n)

		owners, waiting := 0, 0
		for b := 0; b < n; b++ {
			id := BuyerID(fmt.Sprintf("buyer-%04d", b))
			if owns, _ := m.Owns(id, DatasetID(fmt.Sprintf("ds-%03d", b%8))); owns {
				owners++
			}
			if wait, _ := m.WaitRemaining(id, DatasetID(fmt.Sprintf("ds-%03d", (b+3)%8))); wait > 0 {
				waiting++
			}
		}
		if owners != n || waiting != n {
			t.Fatalf("%d buyers: %d own their first dataset and %d wait on their last; want every one", n, owners, waiting)
		}
		t.Logf("%d buyers: FromState allocates %.3f times per buyer", n, perBuyer)
		if perBuyer > budget {
			t.Errorf("%d buyers: FromState allocates %.3f times per buyer, budget %.2f", n, perBuyer, budget)
		}
	}
}
