// Package core implements the paper's primary contribution: the data
// market pricing algorithm (Algorithm 1) that combines the three
// protection techniques.
//
//   - Epoch-Shield (Section 3): the posting price is recomputed only once
//     per epoch of E bids, from revenue comparisons over the whole epoch,
//     so no single strategic low bid reliably moves the price, and buyers
//     cannot observe epoch boundaries.
//   - Time-Shield (Section 4): losing buyers receive a wait-period w_i
//     computed by replaying hypothetical futures against a fork of the
//     learner state (Section 6.2.2, Bound and Stable strategies), chosen
//     so a truthful losing bid could not have won any earlier.
//   - Uncertainty-Shield (Section 5): the next posting price is sampled
//     from the multiplicative-weights distribution rather than chosen
//     deterministically, which both tames boundedly-rational reactions to
//     price leaks and preserves the MW revenue guarantee.
//
// The engine prices a single dataset; the market substrate
// (internal/market) runs one engine per dataset and enforces wait-periods
// and bid cadence.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/mw"
	"github.com/datamarket/shield/internal/rng"
)

// DrawRule selects how the engine turns MW weights into the next posting
// price (the Figure 4a comparison).
type DrawRule int

const (
	// DrawMW samples the price proportionally to the expert weights:
	// the paper's choice, implementing Uncertainty-Shield with the MW
	// performance guarantee.
	DrawMW DrawRule = iota
	// DrawMWMax deterministically posts the highest-weight price. Highest
	// revenue in simulation but no Uncertainty-Shield protection.
	DrawMWMax
	// DrawAdHoc samples uniformly from a neighborhood of the
	// highest-weight price: randomized, but ignores the actual weights and
	// so carries no performance guarantee.
	DrawAdHoc
	// DrawRandom samples uniformly from all candidates, severing any link
	// between bids and prices: full protection, no learning.
	DrawRandom
)

// String implements fmt.Stringer.
func (d DrawRule) String() string {
	switch d {
	case DrawMW:
		return "MW"
	case DrawMWMax:
		return "MW-Max"
	case DrawAdHoc:
		return "AdHoc"
	case DrawRandom:
		return "Random"
	default:
		return "unknown"
	}
}

// WaitStrategy selects how compute_wait_period replays hypothetical future
// bids (Section 6.2.2).
type WaitStrategy int

const (
	// WaitBound assumes all future bids arrive at the market's bid floor,
	// the fastest possible route for the losing bid to become competitive;
	// the resulting w_i is the earliest time the bid could win anywhere.
	WaitBound WaitStrategy = iota
	// WaitStable assumes all future bids equal the losing bid itself.
	// For low bids this is the paper's "more conservative" estimate:
	// weights drift toward candidates at or below the bid no faster than
	// the Bound replay drives them to the floor.
	WaitStable
)

// String implements fmt.Stringer.
func (w WaitStrategy) String() string {
	switch w {
	case WaitBound:
		return "Bound"
	case WaitStable:
		return "Stable"
	default:
		return "unknown"
	}
}

// Config configures an Engine.
type Config struct {
	// Candidates is the set P of posting-price candidates; each one is an
	// MW expert. Required, at least two strictly positive values.
	Candidates []float64
	// EpochSize is E, the number of bids per epoch. Required, >= 1.
	EpochSize int
	// Eta is the MW learning rate in (0, 0.5]; 0 selects mw.DefaultEta.
	Eta float64
	// Rule selects the price draw rule; the zero value is the paper's MW
	// sampling.
	Rule DrawRule
	// Wait selects the wait-period replay strategy; the zero value is
	// Bound.
	Wait WaitStrategy
	// BidsPerPeriod converts simulated future bids into buyer time
	// periods for wait-period computation (buyers bid at most once per
	// period, Section 4.1). 0 selects 1.
	BidsPerPeriod int
	// MaxWaitEpochs caps the wait-period simulation: a bid that has not
	// become competitive after this many simulated epochs is assigned the
	// cap (it may simply never become competitive). 0 selects 64.
	MaxWaitEpochs int
	// MinBid is the market's bid floor used by the Bound strategy.
	MinBid float64
	// AdHocNeighborhood is the +-k candidate window for DrawAdHoc;
	// 0 selects 1.
	AdHocNeighborhood int
	// DisableWaitPeriods turns off Time-Shield wait computation: losing
	// decisions carry Wait = 0. Used by simulation replays that feed
	// pre-transformed bid streams (the static strategic transform already
	// encodes buyer timing), where per-loser replay simulation would only
	// cost time. Live markets leave this false.
	DisableWaitPeriods bool
	// RegridEvery, when > 0, re-centers the candidate grid on the
	// current weight mass every RegridEvery epochs: the paper fixes the
	// candidate set P "for the sake of presentation" (Section 6.2); an
	// adaptive grid keeps the same number of experts but concentrates
	// them where demand actually is, improving price resolution on
	// drifting valuation processes. Learned mass transfers to the new
	// grid by nearest-candidate weight; the grid never leaves the
	// original [min, max] candidate range.
	RegridEvery int
	// ShareFraction, when > 0, enables fixed-share weight mixing
	// (Herbster-Warmuth): after every epoch update this fraction of the
	// total weight is redistributed uniformly, so the learner can track
	// a drifting revenue-optimal price instead of committing forever to
	// a stale one. Must lie in [0, 1); typical values are 0.01-0.05.
	ShareFraction float64
	// Seed seeds the engine's private randomness.
	Seed uint64
}

// Decision is the engine's immediate answer to one bid: posting-price
// mechanisms answer before the next price update, so buyer latency (and
// hence deadline utility) is unaffected (Section 6.2.1).
type Decision struct {
	// Allocated reports whether the bid won (bid >= posting price).
	Allocated bool
	// Price is the posting price the bid was evaluated against; winners
	// pay exactly this.
	Price float64
	// Wait is the Time-Shield wait-period in buyer time periods for
	// losing bids (0 for winners): the buyer may not bid again for Wait
	// periods.
	Wait int
}

// Engine prices one dataset online per Algorithm 1. It is not safe for
// concurrent use; the market arbiter serializes access per dataset.
type Engine struct {
	cfg          Config
	learner      *mw.Learner
	rand         rng.RNG
	minCandidate float64
	// origCandidates and the original grid bounds anchor adaptive
	// regridding and Reset.
	origCandidates []float64
	origLo, origHi float64

	price float64
	epoch []float64

	// Scratch of the epoch-scoring kernel (see scoreEpoch), carved with
	// the candidates and the epoch from one block (see carve) and
	// overwritten by every use — none of it is state: the sorted epoch,
	// one cost (or, in the wait-period replay, factor) per candidate and
	// the replay's private copy of the weights.
	curve       auction.Curve
	costs, simW []float64

	// running statistics
	revenue     float64
	bids        int
	allocations int
	epochs      int

	// perturb, when non-nil, transforms every drawn posting price before
	// it takes effect (test-only; see TestSetPricePerturb).
	perturb func(price float64) float64
}

// Validate checks a Config, returning a descriptive error for the first
// problem found.
func (c Config) Validate() error {
	if len(c.Candidates) < 2 {
		return errors.New("core: need at least two posting-price candidates")
	}
	for i, p := range c.Candidates {
		if !(p > 0) || math.IsInf(p, 1) || math.IsNaN(p) {
			return fmt.Errorf("core: candidate %d (%v) must be a positive finite price", i, p)
		}
	}
	if c.EpochSize < 1 {
		return errors.New("core: epoch size must be >= 1")
	}
	if c.Eta < 0 || c.Eta > 0.5 {
		return fmt.Errorf("core: eta %v outside [0, 0.5]", c.Eta)
	}
	if c.BidsPerPeriod < 0 {
		return errors.New("core: BidsPerPeriod must be >= 0")
	}
	if c.MaxWaitEpochs < 0 {
		return errors.New("core: MaxWaitEpochs must be >= 0")
	}
	if c.MinBid < 0 {
		return errors.New("core: MinBid must be >= 0")
	}
	if c.RegridEvery < 0 {
		return errors.New("core: RegridEvery must be >= 0")
	}
	if c.ShareFraction < 0 || c.ShareFraction >= 1 {
		return fmt.Errorf("core: ShareFraction %v outside [0, 1)", c.ShareFraction)
	}
	switch c.Rule {
	case DrawMW, DrawMWMax, DrawAdHoc, DrawRandom:
	default:
		return fmt.Errorf("core: unknown draw rule %d", c.Rule)
	}
	switch c.Wait {
	case WaitBound, WaitStable:
	default:
		return fmt.Errorf("core: unknown wait strategy %d", c.Wait)
	}
	return nil
}

// Fields with a default are read through these (BidsPerPeriod through
// ceilDiv): a restored engine keeps its configuration as recorded.
func (c Config) eta() float64           { return cmp.Or(c.Eta, mw.DefaultEta) }
func (c Config) maxWaitEpochs() int     { return cmp.Or(c.MaxWaitEpochs, 64) }
func (c Config) adHocNeighborhood() int { return cmp.Or(c.AdHocNeighborhood, 1) }

func (c *Config) applyDefaults() {
	c.Eta, c.MaxWaitEpochs, c.AdHocNeighborhood = c.eta(), c.maxWaitEpochs(), c.adHocNeighborhood()
	c.BidsPerPeriod = cmp.Or(c.BidsPerPeriod, 1)
}

// New builds an Engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	e := &Engine{cfg: cfg, rand: *rng.New(cfg.Seed)}
	e.carve()
	// No candidate slice is ever written in place — regrid and Reset
	// replace it — so the grid in force and its anchor start as one copy.
	cands := e.cfg.Candidates
	e.origCandidates, e.origLo, e.origHi = cands, slices.Min(cands), slices.Max(cands)
	e.minCandidate = e.origLo
	e.learner = mw.NewLearner(cands, cfg.Eta)
	if cfg.ShareFraction > 0 {
		e.learner.SetShare(cfg.ShareFraction)
	}
	e.price = e.drawPrice()
	return e, nil
}

// carve cuts a copy of the candidates, the empty epoch and the kernel's
// scratch, sized for a candidate count regridding never changes, from
// one block. Every piece's capacity is capped, so no append spills into
// its neighbour.
func (e *Engine) carve() {
	k, n := len(e.cfg.Candidates), e.cfg.EpochSize
	buf := make([]float64, 3*k+2*n)
	cut := func(m int) []float64 { s := buf[:m:m]; buf = buf[m:]; return s }
	e.cfg.Candidates = append(cut(k)[:0], e.cfg.Candidates...)
	e.epoch = cut(n)[:0]
	e.costs, e.simW = cut(k), cut(k)
	e.curve.Reuse(cut(n))
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// PostingPrice returns the price in force for the next bid. The epoch
// boundary itself remains private: callers cannot tell from the price when
// the last update happened.
func (e *Engine) PostingPrice() float64 { return e.price }

// Revenue returns the revenue collected so far.
func (e *Engine) Revenue() float64 { return e.revenue }

// Bids returns the number of bids processed.
func (e *Engine) Bids() int { return e.bids }

// Allocations returns the number of winning bids so far.
func (e *Engine) Allocations() int { return e.allocations }

// Epochs returns the number of completed epochs.
func (e *Engine) Epochs() int { return e.epochs }

// Config returns the engine's configuration: with defaults applied when
// New built the engine, as recorded when RestoreSnapshot did.
func (e *Engine) Config() Config { return e.cfg }

// SubmitBid runs Algorithm 1 lines 4-12 for one incoming bid: the bid is
// evaluated against the current posting price, payment is collected from
// winners, losers receive a Time-Shield wait-period, and the price is
// updated if the bid completed an epoch.
func (e *Engine) SubmitBid(b float64) Decision {
	e.bids++
	e.epoch = append(e.epoch, b)

	d := Decision{Price: e.price}
	if b >= e.price && e.price > 0 {
		d.Allocated = true
		e.allocations++
		e.revenue += e.price
	} else if !e.cfg.DisableWaitPeriods {
		d.Wait = e.computeWaitPeriod(b)
	}
	e.maybeUpdatePrice()
	return d
}

// Observe feeds a demand signal into the engine's current epoch without an
// allocation decision: when a bid targets a derived dataset, the market
// propagates it to the engines of the constituent datasets (Figure 1,
// step 2), so their prices reflect the indirect demand.
func (e *Engine) Observe(b float64) {
	e.epoch = append(e.epoch, b)
	e.maybeUpdatePrice()
}

// maybeUpdatePrice implements update_price (Algorithm 1 lines 13-26):
// when the epoch is complete, score every expert by its relative revenue
// difference on the epoch, apply the MW rule, and draw the next price.
func (e *Engine) maybeUpdatePrice() {
	if len(e.epoch) != e.cfg.EpochSize {
		return
	}
	e.epochs++
	e.curve.Sort(e.epoch)
	if e.scoreEpoch(e.price) {
		// The played expert's cost is 0 by construction in this relative
		// formulation, so the incurred-cost argument is 0.
		e.learner.Update(e.costs, 0)
	}
	e.epoch = e.epoch[:0]
	if e.cfg.RegridEvery > 0 && e.epochs%e.cfg.RegridEvery == 0 {
		e.regrid()
	}
	e.price = e.drawPrice()
}

// scoreEpoch is the scoring half of the kernel the live price update and
// the wait-period replay share: for the epoch loaded in e.curve, priced
// at chosen, it writes every candidate's cost — its relative revenue
// difference (R(chosen) - R(p)) / R_opt, Algorithm 1 lines 15-20 — into
// e.costs, ready for the learner's Update or Prepare. It reports false,
// writing nothing, for an epoch with no positive bid: the cost is
// undefined and no weight moves.
//
// One walk over the sorted epoch reads every candidate's winners, the
// bids >= p: the tail index j moves from where the previous candidate
// left it, so an ascending grid costs O(K+E) and any other order still
// finds each candidate's own tail. Every candidate above the top bid
// wins nothing and shares one cost.
func (e *Engine) scoreEpoch(chosen float64) bool {
	_, optR := e.curve.Optimal()
	if optR <= 0 {
		return false
	}
	revenue := e.curve.Revenue(chosen)
	asc, j := e.curve.Ascending(), 0
	top, above := asc[len(asc)-1], revenue/optR
	for i, p := range e.cfg.Candidates {
		if p > top {
			e.costs[i] = above
			continue
		}
		for j > 0 && asc[j-1] >= p {
			j--
		}
		for j < len(asc) && !(asc[j] >= p) { // NaN bids sort first and never win
			j++
		}
		e.costs[i] = (revenue - p*float64(len(asc)-j)) / optR
	}
	return true
}

// regrid re-centers the candidate grid on the current weight mass: the
// new grid spans the weighted mean +- 2 weighted standard deviations of
// the price distribution (clamped to the original range, never narrower
// than one original grid step) using the same number of candidates. Each
// new candidate's weight blends its nearest old candidate's probability
// with a uniform floor, so the learner keeps enough exploration mass to
// correct any transfer error within a few epochs — a pure
// nearest-neighbor transfer would zero out all but the argmax's
// neighbors and let discretization noise compound into price drift.
func (e *Engine) regrid() {
	cands := e.cfg.Candidates
	probs := e.learner.Probabilities()

	var mean float64
	for i, c := range cands {
		mean += probs[i] * c
	}
	var variance float64
	for i, c := range cands {
		d := c - mean
		variance += probs[i] * d * d
	}
	sd := math.Sqrt(variance)

	// Keep a minimum span so the grid cannot collapse to a point, and
	// symmetric margins so the optimum is not pinned to a grid edge.
	minSpan := (e.origHi - e.origLo) / float64(len(cands))
	span := 4 * sd
	if span < minSpan {
		span = minSpan
	}
	lo := mean - span/2
	hi := mean + span/2
	if lo < e.origLo {
		lo = e.origLo
	}
	if hi > e.origHi {
		hi = e.origHi
	}
	if hi-lo < minSpan {
		hi = lo + minSpan
		if hi > e.origHi {
			hi = e.origHi
			lo = hi - minSpan
		}
	}

	newCands := auction.LinearGrid(lo, hi, len(cands))
	newWeights := make([]float64, len(newCands))
	uniform := 1 / float64(len(newCands))
	for i, nc := range newCands {
		nearest := 0
		best := math.Inf(1)
		for j, oc := range cands {
			if d := math.Abs(oc - nc); d < best {
				best = d
				nearest = j
			}
		}
		newWeights[i] = 0.8*probs[nearest] + 0.2*uniform
	}
	e.cfg.Candidates = newCands
	e.minCandidate = lo
	e.learner = mw.NewLearnerWithWeights(newCands, newWeights, e.cfg.eta())
	if e.cfg.ShareFraction > 0 {
		e.learner.SetShare(e.cfg.ShareFraction)
	}
}

// TestSetPricePerturb installs f (nil to remove) as a transform applied
// to every posting price this engine draws from now on. It exists
// solely as a mutation canary for the model-based torture harness
// (internal/torture): a test injects a deliberate mispricing into the
// live replicas' engines and asserts the differential against the
// unperturbed reference model catches it, proving the reference
// actually discriminates. Production code must never call it, and it is
// not goroutine-safe to flip while the engine is serving bids. The
// price drawn at construction time is unaffected; the perturbation
// first bites at the next epoch redraw.
func (e *Engine) TestSetPricePerturb(f func(price float64) float64) {
	e.perturb = f
}

// drawPrice picks the next posting price according to the configured rule.
func (e *Engine) drawPrice() float64 {
	var p float64
	switch e.cfg.Rule {
	case DrawMWMax:
		p = e.cfg.Candidates[e.learner.ArgMax()]
	case DrawAdHoc:
		k := e.cfg.adHocNeighborhood()
		center := e.learner.ArgMax()
		lo, hi := center-k, center+k
		if lo < 0 {
			lo = 0
		}
		if hi > len(e.cfg.Candidates)-1 {
			hi = len(e.cfg.Candidates) - 1
		}
		p = e.cfg.Candidates[lo+e.rand.Intn(hi-lo+1)]
	case DrawRandom:
		p = e.cfg.Candidates[e.rand.Intn(len(e.cfg.Candidates))]
	default: // DrawMW
		p = e.learner.DrawValue(&e.rand)
	}
	if e.perturb != nil {
		p = e.perturb(p)
	}
	return p
}

// ComputeWaitPeriod returns the Time-Shield wait-period (in buyer time
// periods) that would be assigned to a losing bid b right now, without
// recording the bid. Exposed for the wait-period ablation and for the
// ex-post algorithm, which penalizes under-payments on the *next* bid.
func (e *Engine) ComputeWaitPeriod(b float64) int {
	return e.computeWaitPeriod(b)
}

// computeWaitPeriod implements compute_wait_period (Section 6.2.2). It
// replays hypothetical futures on a scratch copy of the weights: the
// current epoch completed with synthetic bids (Bound: all at the bid
// floor; Stable: all equal to b), then whole synthetic epochs, counting
// the bids consumed until b becomes competitive — at least the most
// likely posting price (the highest-weight expert). The bid count
// converts to buyer periods at the configured arrival rate. Both
// strategies are optimistic for the buyer, so a truthful losing buyer
// cannot have won before the wait expires (Claim 3).
//
// Every replayed round moves weights exactly as a live epoch close
// would, giving each Update's bits. Unmixed, with later rounds of E
// copies of a synthetic s <= b, leadRounds computes only the weights that
// can decide the answer. Otherwise round one goes through scoreEpoch and
// every round through the learner's Prepare and Apply, rounds two onward
// on E copies of s loaded into auction.Curve once per call with no sort.
func (e *Engine) computeWaitPeriod(b float64) int {
	synthetic := e.cfg.MinBid
	if e.cfg.Wait == WaitStable {
		synthetic = b
	} else if synthetic < e.minCandidate {
		// A synthetic bid below every candidate price earns zero revenue
		// for every expert, so no weights would move and the bid would
		// never become competitive — clamping to the cheapest candidate
		// keeps Bound the fastest-convergence strategy the paper defines.
		synthetic = e.minCandidate
	}

	cands, size, lead := e.cfg.Candidates, e.cfg.EpochSize, e.learner.ArgMax()
	remaining := size - len(e.epoch)
	if b >= cands[lead] {
		// The bid already matches the most likely price; it lost only to
		// draw randomness. The earliest new opportunity is the next
		// price draw, i.e. the end of the current epoch.
		return ceilDiv(remaining, e.cfg.BidsPerPeriod)
	}
	if b < e.minCandidate {
		// No candidate price can ever fall to b: the bid can never become
		// competitive, so waiting cannot cost the buyer an opportunity
		// (Section 4.2) and the wait is the full simulation cap.
		return ceilDiv(remaining+e.cfg.maxWaitEpochs()*size, e.cfg.BidsPerPeriod)
	}

	// Round one: the current epoch completed with synthetic bids, priced
	// at the posting price in force. The padding is written into the
	// epoch buffer's spare capacity, past its length, where the next real
	// bids overwrite it.
	first := e.epoch
	for len(first) < size {
		first = append(first, synthetic)
	}
	e.curve.Sort(first)
	simulated := remaining

	// Rounds two onward replay E copies of the synthetic bid, loaded into
	// the curve once — unless the live epoch opens with a bid equal to the
	// synthetic value. The reference replay tested "already all-synthetic"
	// by its first element alone and so kept re-scoring the round-one
	// epoch then; recorded waits are replayed from journals, so the quirk
	// is part of the contract (DESIGN.md, "Wait-period computation").
	keepFirst := len(e.epoch) > 0 && e.epoch[0] == synthetic
	if e.cfg.ShareFraction == 0 && !keepFirst && b >= synthetic {
		return ceilDiv(simulated+size*e.leadRounds(b, synthetic, lead), e.cfg.BidsPerPeriod)
	}
	moved := e.scoreEpoch(e.price)
	if !keepFirst {
		e.curve.Fill(synthetic, size)
	}

	w := e.learner.WeightsInto(e.simW)
	var r mw.Round
	if moved {
		e.learner.Prepare(&r, w, e.costs)
	}
	for round, prepared, rounds := 0, -1, e.cfg.maxWaitEpochs(); round < rounds; round++ {
		var likely int
		if moved {
			likely = e.learner.Apply(&r, w)
		} else {
			likely = mw.ArgMax(w)
		}
		if b >= cands[likely] {
			return ceilDiv(simulated, e.cfg.BidsPerPeriod)
		}
		// Subsequent epochs are all-synthetic; the replay plays the most
		// likely price each round (the buyer's best bet, Section 6.2.2),
		// and their costs depend on it alone: scored once per run of it.
		simulated += size
		if likely != prepared {
			prepared = likely
			if moved = e.scoreEpoch(cands[likely]); moved {
				e.learner.Prepare(&r, w, e.costs)
			}
		}
	}
	// Never became competitive within the cap: per Section 4.2, waiting
	// cannot harm a buyer whose bid would never have won; return the cap.
	return ceilDiv(simulated, e.cfg.BidsPerPeriod)
}

// Mutation seams for TestWaitPruneCanary and TestWaitTieBreakCanary:
// the cost whose factor bounds every gain, and ArgMax's rule for a tie.
var pruneCost, leadsTie = -1.0, func(i, j int) bool { return i < j }

// leadRounds is computeWaitPeriod's replay (round one in the curve) for
// an unmixed learner whose later rounds are E copies of s <= b: the round,
// 0 for round one, after which b is competitive, or the cap. A later
// round plays the leader, above b, so only M, the candidates at or below
// s and all competitive, move, each by a fixed gain. So only M and the
// best other weight after round one count, and of the others only
// contenders are scored: weights that, times the largest factor their
// cost allows (1 for a loss, 1 + y·eta for a gain y by Bernoulli, and
// some ulps), reach the best so far. The cut is a quotient: no pruned
// weight, on an old engine mostly subnormal, is multiplied.
func (e *Engine) leadRounds(b, s float64, lead int) int {
	cands, w := e.cfg.Candidates, e.learner.WeightsInto(e.simW)
	_, optR := e.curve.Optimal() // > 0: round one pads with s
	revenue := e.curve.Revenue(e.price)
	cost := func(p float64) float64 { return (revenue - e.curve.Revenue(p)) / optR } // scoreEpoch's
	top, best := w[lead]*e.learner.Factor(cost(cands[lead])), lead
	eta := e.learner.Factor(pruneCost) - 1 // as the learner rounds 1+eta
	cut := top / ((1 + eta) * (1 + 0x1p-49))
	for i, p := range cands {
		if p <= s || i == lead || w[i] < cut {
			continue
		}
		if c := cost(p); w[i]*(1+max(0, -c)*eta)*(1+0x1p-49) >= top {
			if v := w[i] * e.learner.Factor(c); v > top || v == top && leadsTie(i, best) {
				top, best, cut = v, i, v/((1+eta)*(1+0x1p-49))
			}
		}
	}
	// M after round one, packed in index order: weights in w[:m], prices
	// in e.costs[:m]; the first lo take the leader's place on a tie.
	m, lo := 0, 0
	for i, p := range cands {
		if p > s {
			continue
		}
		if w[m] = w[i] * e.learner.Factor(cost(p)); w[m] > top || w[m] == top && leadsTie(i, best) {
			return 0
		}
		if e.costs[m], m = p, m+1; leadsTie(i, best) {
			lo = m
		}
	}
	if b >= cands[best] {
		return 0
	}
	if wL := top; !(top > 1e-6 && top < 1e6) { // round one's rescale
		for k := range w[:m] {
			w[k] /= wL
		}
		top = 1
	}
	// Later rounds cost (0 - p·E)/(E·s) for p in M, Optimal being E·s.
	// Where they could cost much (many or subnormal products) a bound on
	// M's reach in the n rounds left comes first: a product rounds up by
	// at most half an ulp or half the subnormal spacing, so (W +
	// n·2⁻¹⁰⁷⁴)·(G(1+2⁻⁵²))ⁿ for the largest weight W and gain G, in logs
	// (no n overflows them) with a margin far above their error.
	size, rounds := float64(e.cfg.EpochSize), e.cfg.maxWaitEpochs()
	g, maxW, maxG := e.costs[:m], 0.0, 1.0
	for k, p := range g {
		g[k] = e.learner.Factor((0 - p*size) / (size * s))
		maxW, maxG = max(maxW, w[k]), max(maxG, g[k])
	}
	if n := float64(rounds - 1); maxW < 0x1p-1022 || float64(m)*n > 256 {
		reach, ln := math.Log(maxW+n*0x1p-1074)+n*math.Log(maxG*(1+0x1p-52)), math.Log(top)
		if reach+1e-9*(1+math.Abs(reach)+math.Abs(ln)) < ln {
			return rounds
		}
	}
	first := rounds // each of M runs alone to its lead, or the earliest yet
	for k, f := range g {
		for r, v := 1, w[k]; r < first; r++ {
			if v *= f; v > top || v == top && k < lo {
				first = r
			}
		}
	}
	return first
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Weights exposes a copy of the current expert weights (diagnostics only;
// a deployment must not leak these to buyers).
func (e *Engine) Weights() []float64 { return e.learner.Weights() }

// Probabilities exposes the current price distribution (diagnostics only).
func (e *Engine) Probabilities() []float64 { return e.learner.Probabilities() }

// MostLikelyPrice returns the highest-weight candidate price.
func (e *Engine) MostLikelyPrice() float64 {
	return e.cfg.Candidates[e.learner.ArgMax()]
}

// Reset leaves the engine as New builds it from its configuration with
// Seed set to seed, in the storage it has: the carved block and, unless
// RegridEvery lets the grid move, the learner.
func (e *Engine) Reset(seed uint64) {
	if e.cfg.RegridEvery > 0 {
		e.cfg.Candidates = e.origCandidates
		e.minCandidate = e.origLo
		e.learner = mw.NewLearner(e.origCandidates, e.cfg.eta())
		if e.cfg.ShareFraction > 0 {
			e.learner.SetShare(e.cfg.ShareFraction)
		}
	}
	e.learner.Reset()
	e.cfg.Seed = seed
	e.rand = *rng.New(seed)
	e.epoch = e.epoch[:0]
	e.revenue = 0
	e.bids = 0
	e.allocations = 0
	e.epochs = 0
	e.perturb = nil
	e.price = e.drawPrice()
}
