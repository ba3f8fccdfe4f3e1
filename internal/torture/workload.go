package torture

import (
	"fmt"
	"strings"

	"github.com/datamarket/shield/internal/buyers"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/timeseries"
	"github.com/datamarket/shield/internal/userstudy"
)

// OpKind enumerates the operations the workload generator emits.
type OpKind int

const (
	OpRegisterBuyer OpKind = iota
	OpRegisterSeller
	OpUpload
	OpCompose
	OpWithdraw
	OpTick
	OpBid
	OpBatch
	OpQuery
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRegisterBuyer:
		return "register_buyer"
	case OpRegisterSeller:
		return "register_seller"
	case OpUpload:
		return "upload"
	case OpCompose:
		return "compose"
	case OpWithdraw:
		return "withdraw"
	case OpTick:
		return "tick"
	case OpBid:
		return "bid"
	case OpBatch:
		return "batch"
	case OpQuery:
		return "query"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// BidSpec is one entry of a batch op.
type BidSpec struct {
	Buyer   market.BuyerID
	Dataset market.DatasetID
	Amount  float64
}

// Op is one generated operation. Exactly the fields relevant to Kind are
// set. Chaos ops are deliberately invalid requests (bad amounts, unknown
// participants, rule violations) that every implementation must reject
// identically; they are constructed so that they cannot succeed against
// the current state, which keeps the generator's book mirror exact.
type Op struct {
	Kind         OpKind
	Buyer        market.BuyerID
	Seller       market.SellerID
	Dataset      market.DatasetID
	Constituents []market.DatasetID
	Amount       float64
	Bids         []BidSpec

	chaos bool
}

// String renders a compact human-readable description for failure
// reports.
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Kind.String())
	if o.chaos {
		b.WriteString("!")
	}
	switch o.Kind {
	case OpRegisterBuyer:
		fmt.Fprintf(&b, " %s", o.Buyer)
	case OpRegisterSeller:
		fmt.Fprintf(&b, " %s", o.Seller)
	case OpUpload:
		fmt.Fprintf(&b, " %s by %s", o.Dataset, o.Seller)
	case OpCompose:
		fmt.Fprintf(&b, " %s from %v", o.Dataset, o.Constituents)
	case OpWithdraw:
		fmt.Fprintf(&b, " %s by %s", o.Dataset, o.Seller)
	case OpBid:
		fmt.Fprintf(&b, " %s on %s at %.4f", o.Buyer, o.Dataset, o.Amount)
	case OpBatch:
		fmt.Fprintf(&b, " of %d", len(o.Bids))
	case OpQuery:
		fmt.Fprintf(&b, " %s", o.Dataset)
	}
	return b.String()
}

// The generator's one configuration: the paper's user-study panel
// bidding on AR(1) valuation series from its §7 grid.
const (
	genBuyers          = 24   // buyer accounts, personas drawn from the panel
	genSellers         = 4    // seller accounts
	genInitialDatasets = 12   // base datasets uploaded by the setup prologue
	genMaxDatasets     = 64   // cap on alive base datasets
	genMaxDerived      = 12   // cap on alive derived datasets
	genMaxBatch        = 6    // most entries in one batch op
	genHorizon         = 12   // longest campaign deadline span, in periods
	genSeriesLen       = 256  // length of each dataset's valuation series
	genChaos           = 0.05 // chance a steady-state op is a deliberately invalid request
)

// opMix is the relative frequency of each steady-state op kind: a
// bid-heavy mix with enough churn to keep registration, composition and
// withdrawal paths hot.
var opMix = [...]struct {
	kind   OpKind
	weight int
}{
	{OpBid, 50}, {OpBatch, 12}, {OpTick, 14}, {OpUpload, 3},
	{OpCompose, 3}, {OpWithdraw, 2}, {OpQuery, 8},
}

// campaign is one buyer's ongoing attempt to acquire one dataset: a
// strategy instance from internal/buyers plus a deadline. Campaigns renew
// with a fresh valuation draw when the deadline passes without a win.
type campaign struct {
	strat    buyers.Strategy
	deadline int
}

// genBuyer is the generator's mirror of one buyer account plus its
// behavioural persona. The book fields (lastBid, blockedUntil, acquired)
// shadow the market's own rules so the generator can keep most traffic
// valid; they are updated only from reference-model outcomes.
type genBuyer struct {
	id     market.BuyerID
	rand   *rng.RNG
	anchor float64
	kind   int

	camps        map[market.DatasetID]*campaign
	lastBid      map[market.DatasetID]int
	blockedUntil map[market.DatasetID]int
	acquired     map[market.DatasetID]bool
}

// genDataset is the generator's view of one dataset.
type genDataset struct {
	id      market.DatasetID
	seller  market.SellerID
	derived bool
	parts   []market.DatasetID
	series  []float64
}

// generator produces the op stream. All randomness flows from named
// forks of a single root RNG, so the stream is a pure function of the
// seed and the reference model's outcomes (which are themselves
// deterministic).
type generator struct {
	minBid    float64
	opRand    *rng.RNG
	chaosRand *rng.RNG
	root      *rng.RNG

	clock   int
	buyers  []*genBuyer
	sellers []market.SellerID

	datasets     map[market.DatasetID]*genDataset
	aliveBase    []market.DatasetID
	aliveDerived []market.DatasetID
	withdrawn    []market.DatasetID

	// lastPrice is the most recent winning price per dataset, leaked to
	// LeakReactive buyers (-1 when no sale has happened yet).
	lastPrice map[market.DatasetID]float64

	nextBase    int
	nextDerived int

	pending []Op
}

// newGenerator builds a generator. minBid is the market's bid floor
// (strategy floors are pinned to it so generated amounts stay positive
// and mostly plausible).
func newGenerator(seed uint64, minBid float64) (*generator, error) {
	if minBid <= 0 {
		minBid = 1
	}
	root := rng.New(seed)
	g := &generator{
		minBid:    minBid,
		root:      root,
		opRand:    root.Fork("ops"),
		chaosRand: root.Fork("chaos"),
		datasets:  make(map[market.DatasetID]*genDataset),
		lastPrice: make(map[market.DatasetID]float64),
	}

	// Buyer aggressiveness anchors come from the paper's user-study
	// panel: RQ1 bids for a valuation of 100 give each simulated
	// participant's bid-to-valuation ratio.
	panel := userstudy.NewPanel(genBuyers, root.Fork("panel").Uint64())
	ratios, err := panel.RQ1(100)
	if err != nil {
		return nil, fmt.Errorf("torture: user-study panel: %w", err)
	}

	for i := 0; i < genSellers; i++ {
		id := market.SellerID(fmt.Sprintf("s%d", i))
		g.sellers = append(g.sellers, id)
		g.pending = append(g.pending, Op{Kind: OpRegisterSeller, Seller: id})
	}
	for i := 0; i < genBuyers; i++ {
		id := market.BuyerID(fmt.Sprintf("b%02d", i))
		br := root.Fork("buyer/" + string(id))
		anchor := ratios[i] / 100
		if anchor < 0.05 {
			anchor = 0.05
		}
		g.buyers = append(g.buyers, &genBuyer{
			id:           id,
			rand:         br,
			anchor:       anchor,
			kind:         br.Intn(6),
			camps:        make(map[market.DatasetID]*campaign),
			lastBid:      make(map[market.DatasetID]int),
			blockedUntil: make(map[market.DatasetID]int),
			acquired:     make(map[market.DatasetID]bool),
		})
		g.pending = append(g.pending, Op{Kind: OpRegisterBuyer, Buyer: id})
	}
	for i := 0; i < genInitialDatasets; i++ {
		g.pending = append(g.pending, g.makeUploadOp())
	}
	return g, nil
}

// makeUploadOp mints a fresh base dataset (IDs are monotonic and never
// reused, so an upload of a fresh ID always succeeds) and records it in
// the generator's books immediately.
func (g *generator) makeUploadOp() Op {
	id := market.DatasetID(fmt.Sprintf("d%03d", g.nextBase))
	g.nextBase++
	seller := g.sellers[g.opRand.Intn(len(g.sellers))]
	g.datasets[id] = &genDataset{id: id, seller: seller, series: g.makeSeries(id)}
	g.aliveBase = append(g.aliveBase, id)
	return Op{Kind: OpUpload, Seller: seller, Dataset: id}
}

// makeSeries draws a per-dataset AR(1) valuation series using the
// paper's AR grid; each dataset has its own named RNG fork so the series
// does not depend on creation order.
func (g *generator) makeSeries(id market.DatasetID) []float64 {
	r := g.root.Fork("dataset/" + string(id))
	grid := timeseries.PaperARGrid()
	pick := grid[r.Intn(len(grid))]
	mean := 60 + 80*r.Float64()
	series, err := timeseries.GenerateValuations(timeseries.ARConfig{
		AR:    pick[0],
		Sigma: pick[1],
		Mean:  mean,
		Floor: mean * 0.05,
		N:     genSeriesLen,
	}, r)
	if err != nil {
		// The config above is static and valid; a failure here is a
		// generator bug, not an input condition.
		panic(fmt.Sprintf("torture: valuation series for %s: %v", id, err))
	}
	return series
}

// Next returns the next op. The setup prologue drains first; afterwards
// ops are drawn from opMix, with a chaos roll that may
// replace the draw with a deliberately invalid request.
func (g *generator) Next() Op {
	if len(g.pending) > 0 {
		op := g.pending[0]
		g.pending = g.pending[1:]
		return op
	}
	if g.chaosRand.Bool(genChaos) {
		return g.makeChaosOp()
	}

	total := 0
	for _, m := range opMix {
		total += m.weight
	}
	roll := g.opRand.Intn(total)
	var kind OpKind
	for _, m := range opMix {
		if roll < m.weight {
			kind = m.kind
			break
		}
		roll -= m.weight
	}

	switch kind {
	case OpBid:
		if op, ok := g.makeBidOp(); ok {
			return op
		}
	case OpBatch:
		if op, ok := g.makeBatchOp(); ok {
			return op
		}
	case OpUpload:
		if len(g.aliveBase) < genMaxDatasets {
			return g.makeUploadOp()
		}
	case OpCompose:
		if op, ok := g.makeComposeOp(); ok {
			return op
		}
	case OpWithdraw:
		if op, ok := g.makeWithdrawOp(); ok {
			return op
		}
	case OpQuery:
		if ds, ok := g.pickAliveDataset(); ok {
			return Op{Kind: OpQuery, Dataset: ds}
		}
	}
	// Infeasible draw (everyone blocked, caps reached, ...): advance time
	// instead, which is exactly what unblocks most of those states.
	return Op{Kind: OpTick}
}

func (g *generator) aliveAll() []market.DatasetID {
	out := make([]market.DatasetID, 0, len(g.aliveBase)+len(g.aliveDerived))
	out = append(out, g.aliveBase...)
	out = append(out, g.aliveDerived...)
	return out
}

func (g *generator) pickAliveDataset() (market.DatasetID, bool) {
	all := g.aliveAll()
	if len(all) == 0 {
		return "", false
	}
	return all[g.opRand.Intn(len(all))], true
}

// bidFor asks the buyer's campaign strategy for the next bid on ds,
// creating or renewing the campaign as needed. ok is false when the
// persona declines to bid right now (snipers lurking, strategics sitting
// out a wait).
func (g *generator) bidFor(b *genBuyer, ds *genDataset) (float64, bool) {
	camp := b.camps[ds.id]
	if camp == nil || g.clock > camp.deadline {
		v := ds.series[g.clock%len(ds.series)] * b.anchor
		if v < g.minBid {
			v = g.minBid
		}
		camp = &campaign{
			strat:    g.makeStrategy(b, v),
			deadline: g.clock + 1 + b.rand.Intn(genHorizon),
		}
		b.camps[ds.id] = camp
	}
	leak, ok := g.lastPrice[ds.id]
	if !ok {
		leak = -1
	}
	return camp.strat.NextBid(buyers.Context{
		Period:      g.clock,
		Deadline:    camp.deadline,
		LeakedPrice: leak,
	})
}

func (g *generator) makeStrategy(b *genBuyer, v float64) buyers.Strategy {
	floor := g.minBid
	switch b.kind {
	case 1:
		return buyers.NewStrategic(v, 0.3+0.3*b.rand.Float64(), floor, false)
	case 2:
		return buyers.NewStrategic(v, 0.3+0.3*b.rand.Float64(), floor, true)
	case 3:
		return buyers.NewLeakReactive(v, 0.5+0.4*b.rand.Float64(), 0.05)
	case 4:
		return buyers.NewSniper(v, 1+b.rand.Intn(3))
	case 5:
		return buyers.NewNoisy(v, 0.05*v+0.05, floor, b.rand)
	default:
		return buyers.NewTruthful(v)
	}
}

// eligible reports whether the buyer may bid on the dataset right now
// under the market's cadence rules, as mirrored in the generator's
// books.
func (g *generator) eligible(b *genBuyer, ds market.DatasetID) bool {
	if b.acquired[ds] {
		return false
	}
	if last, ok := b.lastBid[ds]; ok && last == g.clock {
		return false
	}
	return g.clock >= b.blockedUntil[ds]
}

func (g *generator) makeBidOp() (Op, bool) {
	all := g.aliveAll()
	if len(all) == 0 || len(g.buyers) == 0 {
		return Op{}, false
	}
	for attempt := 0; attempt < 8; attempt++ {
		b := g.buyers[g.opRand.Intn(len(g.buyers))]
		ds := all[g.opRand.Intn(len(all))]
		if !g.eligible(b, ds) {
			continue
		}
		amount, ok := g.bidFor(b, g.datasets[ds])
		if !ok {
			continue
		}
		return Op{Kind: OpBid, Buyer: b.id, Dataset: ds, Amount: amount}, true
	}
	return Op{}, false
}

func (g *generator) makeBatchOp() (Op, bool) {
	all := g.aliveAll()
	if len(all) == 0 {
		return Op{}, false
	}
	want := 2 + g.opRand.Intn(genMaxBatch-1)
	used := make(map[string]bool)
	var specs []BidSpec
	for attempt := 0; attempt < 4*want && len(specs) < want; attempt++ {
		b := g.buyers[g.opRand.Intn(len(g.buyers))]
		ds := all[g.opRand.Intn(len(all))]
		key := string(b.id) + "\x00" + string(ds)
		if used[key] || !g.eligible(b, ds) {
			continue
		}
		amount, ok := g.bidFor(b, g.datasets[ds])
		if !ok {
			continue
		}
		used[key] = true
		specs = append(specs, BidSpec{Buyer: b.id, Dataset: ds, Amount: amount})
	}
	if len(specs) < 2 {
		return Op{}, false
	}
	return Op{Kind: OpBatch, Bids: specs}, true
}

func (g *generator) makeComposeOp() (Op, bool) {
	if len(g.aliveDerived) >= genMaxDerived || len(g.aliveBase) < 2 {
		return Op{}, false
	}
	n := 2 + g.opRand.Intn(2)
	if n > len(g.aliveBase) {
		n = len(g.aliveBase)
	}
	perm := g.opRand.Perm(len(g.aliveBase))
	parts := make([]market.DatasetID, n)
	for i := 0; i < n; i++ {
		parts[i] = g.aliveBase[perm[i]]
	}
	id := market.DatasetID(fmt.Sprintf("c%03d", g.nextDerived))
	g.nextDerived++
	g.datasets[id] = &genDataset{id: id, derived: true, parts: parts, series: g.makeSeries(id)}
	g.aliveDerived = append(g.aliveDerived, id)
	return Op{Kind: OpCompose, Dataset: id, Constituents: parts}, true
}

// lockedBases returns the set of base datasets referenced by any alive
// derived dataset; the market refuses to withdraw those.
func (g *generator) lockedBases() map[market.DatasetID]bool {
	locked := make(map[market.DatasetID]bool)
	for _, did := range g.aliveDerived {
		for _, p := range g.datasets[did].parts {
			locked[p] = true
		}
	}
	return locked
}

func (g *generator) makeWithdrawOp() (Op, bool) {
	const keepAlive = 4
	if len(g.aliveBase) <= keepAlive {
		return Op{}, false
	}
	locked := g.lockedBases()
	var free []market.DatasetID
	for _, id := range g.aliveBase {
		if !locked[id] {
			free = append(free, id)
		}
	}
	if len(free) == 0 {
		return Op{}, false
	}
	id := free[g.opRand.Intn(len(free))]
	ds := g.datasets[id]
	for i, a := range g.aliveBase {
		if a == id {
			g.aliveBase = append(g.aliveBase[:i], g.aliveBase[i+1:]...)
			break
		}
	}
	g.withdrawn = append(g.withdrawn, id)
	// Drop campaigns aimed at the dead dataset so personas don't keep
	// asking to bid on it.
	for _, b := range g.buyers {
		delete(b.camps, id)
	}
	return Op{Kind: OpWithdraw, Seller: ds.seller, Dataset: id}, true
}

// makeChaosOp emits a request that is guaranteed to be rejected given the
// current state. The chaos RNG is independent of the op RNG, so what a
// chaos op draws never reshuffles the valid traffic.
func (g *generator) makeChaosOp() Op {
	all := g.aliveAll()
	anyBuyer := func() market.BuyerID {
		return g.buyers[g.chaosRand.Intn(len(g.buyers))].id
	}
	// Each case returns (op, ok); infeasible cases fall through to the
	// always-available bad-amount bid.
	for attempt := 0; attempt < 4; attempt++ {
		switch g.chaosRand.Intn(10) {
		case 0: // non-positive bid amount
			if len(all) > 0 {
				amounts := []float64{0, -1, -1e300}
				return Op{Kind: OpBid, chaos: true, Buyer: anyBuyer(),
					Dataset: all[g.chaosRand.Intn(len(all))],
					Amount:  amounts[g.chaosRand.Intn(len(amounts))]}
			}
		case 1: // unknown buyer
			if len(all) > 0 {
				return Op{Kind: OpBid, chaos: true, Buyer: "ghost-buyer",
					Dataset: all[g.chaosRand.Intn(len(all))], Amount: 10}
			}
		case 2: // unknown or withdrawn dataset
			ds := market.DatasetID("ghost-dataset")
			if len(g.withdrawn) > 0 && g.chaosRand.Bool(0.5) {
				ds = g.withdrawn[g.chaosRand.Intn(len(g.withdrawn))]
			}
			return Op{Kind: OpBid, chaos: true, Buyer: anyBuyer(), Dataset: ds, Amount: 10}
		case 3: // duplicate upload of an alive dataset by its owner
			if len(g.aliveBase) > 0 {
				id := g.aliveBase[g.chaosRand.Intn(len(g.aliveBase))]
				return Op{Kind: OpUpload, chaos: true, Seller: g.datasets[id].seller, Dataset: id}
			}
		case 4: // upload by an unknown seller (fresh id: must fail before touching the graph)
			return Op{Kind: OpUpload, chaos: true, Seller: "ghost-seller",
				Dataset: market.DatasetID(fmt.Sprintf("x%03d", g.chaosRand.Intn(1000)))}
		case 5: // duplicate registration
			if g.chaosRand.Bool(0.5) {
				return Op{Kind: OpRegisterBuyer, chaos: true, Buyer: anyBuyer()}
			}
			return Op{Kind: OpRegisterSeller, chaos: true,
				Seller: g.sellers[g.chaosRand.Intn(len(g.sellers))]}
		case 6: // withdraw by a non-owner
			if len(g.aliveBase) > 0 && len(g.sellers) > 1 {
				id := g.aliveBase[g.chaosRand.Intn(len(g.aliveBase))]
				owner := g.datasets[id].seller
				for _, s := range g.sellers {
					if s != owner {
						return Op{Kind: OpWithdraw, chaos: true, Seller: s, Dataset: id}
					}
				}
			}
		case 7: // withdraw a base dataset locked by a derived one
			locked := g.lockedBases()
			for _, id := range g.aliveBase {
				if locked[id] {
					return Op{Kind: OpWithdraw, chaos: true, Seller: g.datasets[id].seller, Dataset: id}
				}
			}
		case 8: // compose with an unknown constituent
			return Op{Kind: OpCompose, chaos: true,
				Dataset:      market.DatasetID(fmt.Sprintf("y%03d", g.chaosRand.Intn(1000))),
				Constituents: []market.DatasetID{"ghost-dataset"}}
		case 9: // rebid in the same period / bid during a wait / bid on acquired
			if op, ok := g.makeRuleViolationBid(); ok {
				return op
			}
		}
	}
	if len(all) > 0 {
		return Op{Kind: OpBid, chaos: true, Buyer: anyBuyer(),
			Dataset: all[g.chaosRand.Intn(len(all))], Amount: -1}
	}
	return Op{Kind: OpRegisterBuyer, chaos: true, Buyer: anyBuyer()}
}

// makeRuleViolationBid finds a (buyer, dataset) pair that the market's
// cadence rules currently forbid and bids on it. Iteration is over
// ordered slices only — map iteration order must never influence the
// stream.
func (g *generator) makeRuleViolationBid() (Op, bool) {
	all := g.aliveAll()
	type pair struct {
		b  market.BuyerID
		ds market.DatasetID
	}
	var candidates []pair
	for _, b := range g.buyers {
		for _, ds := range all {
			if b.acquired[ds] {
				candidates = append(candidates, pair{b.id, ds})
				continue
			}
			if last, ok := b.lastBid[ds]; ok && last == g.clock {
				candidates = append(candidates, pair{b.id, ds})
				continue
			}
			if g.clock < b.blockedUntil[ds] {
				candidates = append(candidates, pair{b.id, ds})
			}
		}
	}
	if len(candidates) == 0 {
		return Op{}, false
	}
	p := candidates[g.chaosRand.Intn(len(candidates))]
	return Op{Kind: OpBid, chaos: true, Buyer: p.b, Dataset: p.ds, Amount: 10}, true
}

// Observe feeds the reference model's outcome for op back into the
// generator's books. Chaos ops are guaranteed rejections and never touch
// the books.
func (g *generator) Observe(op Op, res opResult) {
	switch op.Kind {
	case OpTick:
		g.clock++
	case OpBid:
		if op.chaos {
			return
		}
		g.observeBid(op.Buyer, op.Dataset, op.Amount, res.dec, res.err)
	case OpBatch:
		for i, spec := range op.Bids {
			if i < len(res.batch) {
				g.observeBid(spec.Buyer, spec.Dataset, spec.Amount, res.batch[i].Decision, res.batch[i].Err)
			}
		}
	}
}

func (g *generator) buyerByID(id market.BuyerID) *genBuyer {
	for _, b := range g.buyers {
		if b.id == id {
			return b
		}
	}
	return nil
}

func (g *generator) observeBid(buyer market.BuyerID, ds market.DatasetID, amount float64, dec market.Decision, err error) {
	b := g.buyerByID(buyer)
	if b == nil || err != nil {
		return
	}
	b.lastBid[ds] = g.clock
	if dec.Allocated {
		b.acquired[ds] = true
		delete(b.camps, ds)
		g.lastPrice[ds] = dec.PricePaid.Float()
	} else {
		b.blockedUntil[ds] = g.clock + dec.WaitPeriods
	}
	if camp := b.camps[ds]; camp != nil {
		camp.strat.Observe(buyers.Outcome{
			Period:    g.clock,
			Bid:       true,
			Won:       dec.Allocated,
			PricePaid: dec.PricePaid.Float(),
			Wait:      dec.WaitPeriods,
		})
	}
}
