package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/rng"
)

func testConfig() Config {
	return Config{
		Candidates:    auction.LinearGrid(10, 100, 10),
		EpochSize:     4,
		BidsPerPeriod: 1,
		MinBid:        1,
		Seed:          42,
	}
}

func TestConfigValidate(t *testing.T) {
	base := testConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"one candidate", func(c *Config) { c.Candidates = []float64{5} }, "two"},
		{"zero candidate", func(c *Config) { c.Candidates = []float64{0, 5} }, "positive"},
		{"negative candidate", func(c *Config) { c.Candidates = []float64{-1, 5} }, "positive"},
		{"epoch 0", func(c *Config) { c.EpochSize = 0 }, "epoch"},
		{"eta big", func(c *Config) { c.Eta = 0.9 }, "eta"},
		{"eta negative", func(c *Config) { c.Eta = -0.1 }, "eta"},
		{"neg bids per period", func(c *Config) { c.BidsPerPeriod = -1 }, "BidsPerPeriod"},
		{"neg max wait", func(c *Config) { c.MaxWaitEpochs = -1 }, "MaxWaitEpochs"},
		{"neg min bid", func(c *Config) { c.MinBid = -1 }, "MinBid"},
		{"bad rule", func(c *Config) { c.Rule = DrawRule(9) }, "rule"},
		{"bad wait", func(c *Config) { c.Wait = WaitStrategy(9) }, "wait"},
	}
	for _, c := range cases {
		cfg := testConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestInitialPriceIsCandidate(t *testing.T) {
	e := MustNew(testConfig())
	p := e.PostingPrice()
	found := false
	for _, c := range e.Config().Candidates {
		if c == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("initial price %v not among candidates", p)
	}
}

func TestAllocationAndPayment(t *testing.T) {
	e := MustNew(testConfig())
	p := e.PostingPrice()
	d := e.SubmitBid(p + 1)
	if !d.Allocated || d.Price != p || d.Wait != 0 {
		t.Fatalf("winning bid decision = %+v at price %v", d, p)
	}
	if e.Revenue() != p || e.Allocations() != 1 {
		t.Fatalf("revenue/allocations = %v/%d", e.Revenue(), e.Allocations())
	}

	p2 := e.PostingPrice()
	d2 := e.SubmitBid(p2 - 1)
	if d2.Allocated {
		t.Fatal("losing bid allocated")
	}
	if d2.Wait < 0 {
		t.Fatalf("negative wait %d", d2.Wait)
	}
	if e.Revenue() != p {
		t.Fatal("losing bid changed revenue")
	}
}

func TestExactPriceBidWins(t *testing.T) {
	e := MustNew(testConfig())
	p := e.PostingPrice()
	if d := e.SubmitBid(p); !d.Allocated {
		t.Fatal("bid equal to posting price must win (b >= p)")
	}
}

func TestPriceUpdatesOnlyAtEpochBoundaries(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 5
	e := MustNew(cfg)
	initial := e.PostingPrice()
	for i := 0; i < 4; i++ {
		e.SubmitBid(50)
		if e.PostingPrice() != initial {
			t.Fatalf("price moved mid-epoch after %d bids", i+1)
		}
	}
	e.SubmitBid(50)
	if e.Epochs() != 1 {
		t.Fatalf("epochs = %d after E bids", e.Epochs())
	}
}

func TestEpochWithNoPositiveBidsKeepsWeights(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 2
	cfg.Rule = DrawMWMax
	e := MustNew(cfg)
	before := e.Weights()
	e.SubmitBid(0)
	e.SubmitBid(0)
	after := e.Weights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("weights moved on all-zero epoch: %v -> %v", before, after)
		}
	}
}

func TestLearningConcentratesOnGoodPrice(t *testing.T) {
	// Feed a stationary stream of bids at 60: the revenue-optimal
	// candidate <= 60 (i.e. 60 itself, which is in the grid) must
	// dominate the weights.
	cfg := testConfig()
	cfg.EpochSize = 8
	e := MustNew(cfg)
	for i := 0; i < 8*200; i++ {
		e.SubmitBid(60)
	}
	if got := e.MostLikelyPrice(); got != 60 {
		t.Fatalf("MostLikelyPrice = %v, want 60", got)
	}
	// The 60-price expert should carry nearly all probability mass.
	probs := e.Probabilities()
	idx := -1
	for i, c := range e.Config().Candidates {
		if c == 60 {
			idx = i
		}
	}
	if probs[idx] < 0.99 {
		t.Fatalf("probability on 60 = %v", probs[idx])
	}
}

func TestMWRevenueTracksOptOnStationaryStream(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 8
	e := MustNew(cfg)
	r := rng.New(7)
	var bids []float64
	for i := 0; i < 8*400; i++ {
		b := r.Uniform(40, 80)
		bids = append(bids, b)
		e.SubmitBid(b)
	}
	_, optR := auction.OptimalPrice(bids)
	if ratio := e.Revenue() / optR; ratio < 0.7 {
		t.Fatalf("MW revenue ratio to Opt = %v, want >= 0.7", ratio)
	}
}

func TestDrawRules(t *testing.T) {
	for _, rule := range []DrawRule{DrawMW, DrawMWMax, DrawAdHoc, DrawRandom} {
		cfg := testConfig()
		cfg.Rule = rule
		cfg.EpochSize = 2
		e := MustNew(cfg)
		for i := 0; i < 100; i++ {
			e.SubmitBid(50)
			p := e.PostingPrice()
			ok := false
			for _, c := range cfg.Candidates {
				if c == p {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%v: price %v not a candidate", rule, p)
			}
		}
	}
}

func TestMWMaxIsDeterministicGivenWeights(t *testing.T) {
	cfg := testConfig()
	cfg.Rule = DrawMWMax
	e1 := MustNew(cfg)
	cfg.Seed = 999 // different randomness must not matter for MW-Max
	e2 := MustNew(cfg)
	for i := 0; i < 200; i++ {
		b := 30 + float64(i%5)*10
		e1.SubmitBid(b)
		e2.SubmitBid(b)
		if e1.PostingPrice() != e2.PostingPrice() {
			t.Fatalf("MW-Max diverged at bid %d", i)
		}
	}
}

func TestAdHocStaysNearArgMax(t *testing.T) {
	cfg := testConfig()
	cfg.Rule = DrawAdHoc
	cfg.AdHocNeighborhood = 1
	cfg.EpochSize = 4
	e := MustNew(cfg)
	// Train toward 60 (index 5 in grid 10..100 step 10).
	for i := 0; i < 4*300; i++ {
		e.SubmitBid(60)
	}
	// Now every drawn price must be within one grid step of the argmax.
	for i := 0; i < 200; i++ {
		e.SubmitBid(60)
		p := e.PostingPrice()
		center := e.MostLikelyPrice()
		if p < center-10-1e-9 || p > center+10+1e-9 {
			t.Fatalf("AdHoc price %v strayed from argmax %v", p, center)
		}
	}
}

func TestRandomRuleIgnoresBids(t *testing.T) {
	cfg := testConfig()
	cfg.Rule = DrawRandom
	cfg.EpochSize = 1
	e := MustNew(cfg)
	seen := map[float64]bool{}
	for i := 0; i < 500; i++ {
		e.SubmitBid(60)
		seen[e.PostingPrice()] = true
	}
	if len(seen) < len(cfg.Candidates)-1 {
		t.Fatalf("Random rule drew only %d distinct prices", len(seen))
	}
}

func TestWinnersNeverWait(t *testing.T) {
	e := MustNew(testConfig())
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		d := e.SubmitBid(r.Uniform(0, 120))
		if d.Allocated && d.Wait != 0 {
			t.Fatalf("winner got wait %d", d.Wait)
		}
		if !d.Allocated && d.Wait < 0 {
			t.Fatalf("negative wait %d", d.Wait)
		}
	}
}

func TestWaitPeriodMonotoneInBidGap(t *testing.T) {
	// A much lower losing bid must wait at least as long as a nearly
	// competitive one (it takes more epochs for the weights to descend).
	for _, ws := range []WaitStrategy{WaitBound, WaitStable} {
		cfg := testConfig()
		cfg.Wait = ws
		cfg.Rule = DrawMWMax
		e := MustNew(cfg)
		// Warm up toward a high price.
		for i := 0; i < 4*30; i++ {
			e.SubmitBid(90)
		}
		high := e.ComputeWaitPeriod(80)
		low := e.ComputeWaitPeriod(15)
		if low < high {
			t.Errorf("%v: wait(15)=%d < wait(80)=%d", ws, low, high)
		}
	}
}

func TestWaitStrategiesConverge(t *testing.T) {
	// Both replay strategies must terminate before the cap for bids at or
	// above the cheapest candidate, and assign the full cap to bids no
	// candidate price can ever reach.
	for _, ws := range []WaitStrategy{WaitBound, WaitStable} {
		cfg := testConfig()
		cfg.Wait = ws
		cfg.Rule = DrawMWMax
		e := MustNew(cfg)
		for i := 0; i < 4*30; i++ {
			e.SubmitBid(90)
		}
		capPeriods := cfg.MaxWaitEpochs * cfg.EpochSize
		if capPeriods == 0 {
			capPeriods = 64 * cfg.EpochSize // default applied by New
		}
		for _, b := range []float64{10, 40, 80} {
			w := e.ComputeWaitPeriod(b)
			if w <= 0 {
				t.Errorf("%v: bid %v got non-positive wait %d", ws, b, w)
			}
			if w >= capPeriods {
				t.Errorf("%v: bid %v hit the simulation cap (%d)", ws, b, w)
			}
		}
		// Below every candidate: never competitive, full cap.
		if w := e.ComputeWaitPeriod(5); w < capPeriods {
			t.Errorf("%v: sub-candidate bid waited only %d < cap %d", ws, w, capPeriods)
		}
	}
}

func TestClaim3BoundWaitNeverHidesAWin(t *testing.T) {
	// Claim 3: with the Bound strategy, if the actual future is the
	// worst-case-for-the-market stream (all bids at the floor), the most
	// likely price first reaches the losing bid exactly when the computed
	// wait expires — never earlier. We run the engine deterministically
	// (MW-Max) and compare the first competitive time with the wait.
	//
	// "The floor" is the Bound strategy's floor: MinBid clamped up to the
	// cheapest candidate, because a bid below every candidate earns every
	// expert nothing and moves no weight (see computeWaitPeriod). This
	// test used to feed cfg.MinBid (1, under a grid starting at 10) and
	// failed about once in 60 clock-seeded runs: the unclamped bids pad
	// the open epoch differently from the replay, the first real epoch
	// close moves the weights further than the simulated one, and the bid
	// turns competitive a few periods early. That future is not the one
	// Claim 3 quantifies over, so the property as written was wrong, not
	// the engine: fed the clamped floor, 20 000 seeds (and the recorded
	// counterexamples below) hold. Seeds come from a fixed generator so
	// tier-1 is the same run every time.
	holds := func(seed uint64) bool {
		rr := rng.New(seed)
		cfg := testConfig()
		cfg.Rule = DrawMWMax
		cfg.Wait = WaitBound
		cfg.Seed = seed
		cfg.MaxWaitEpochs = 96
		e := MustNew(cfg)
		// Random warmup.
		warm := 1 + rr.Intn(60)
		for i := 0; i < warm; i++ {
			e.SubmitBid(rr.Uniform(30, 100))
		}
		likely := e.MostLikelyPrice()
		if likely <= cfg.Candidates[0] {
			return true // nothing below the cheapest candidate to test
		}
		// A losing, not-yet-competitive bid at or above the cheapest
		// candidate (lower bids can never win at all).
		b := rr.Uniform(cfg.Candidates[0], likely-1e-9)
		w := e.ComputeWaitPeriod(b)
		if w <= 0 || w >= cfg.MaxWaitEpochs*cfg.EpochSize {
			return true // degenerate or capped: nothing to verify
		}
		// Feed the Bound future for w-1 periods (1 bid per period): the
		// bid must not become competitive early.
		floor := math.Max(cfg.MinBid, cfg.Candidates[0])
		for i := 0; i < w-1; i++ {
			e.SubmitBid(floor)
			if b >= e.MostLikelyPrice() {
				return false // would-have-won inside the wait: harm
			}
		}
		return true
	}
	// Inputs the clock-seeded version failed on (CHANGES.md, PRs 14-15).
	for _, seed := range []uint64{0xde021fa12266867a, 0x200487e1c5fa756b} {
		t.Run(fmt.Sprintf("counterexample-%#x", seed), func(t *testing.T) {
			if !holds(seed) {
				t.Fatalf("seed %#x: bid became competitive inside its wait", seed)
			}
		})
	}
	seeds := rng.New(3)
	for i := 0; i < 600; i++ {
		if seed := seeds.Uint64(); !holds(seed) {
			t.Errorf("seed %#x: bid became competitive inside its wait", seed)
		}
	}
}

func TestWaitCapRespected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxWaitEpochs = 3
	cfg.Rule = DrawMWMax
	e := MustNew(cfg)
	for i := 0; i < 4*50; i++ {
		e.SubmitBid(100)
	}
	// An absurdly low bid cannot wait more than the cap allows.
	w := e.ComputeWaitPeriod(0.5)
	maxPeriods := (3+1)*cfg.EpochSize + 1 // cap epochs + partial first epoch
	if w > maxPeriods {
		t.Fatalf("wait %d beyond cap-implied %d", w, maxPeriods)
	}
}

func TestBidsPerPeriodScalesWait(t *testing.T) {
	mk := func(bpp int) *Engine {
		cfg := testConfig()
		cfg.BidsPerPeriod = bpp
		cfg.Rule = DrawMWMax
		e := MustNew(cfg)
		for i := 0; i < 4*30; i++ {
			e.SubmitBid(90)
		}
		return e
	}
	slow := mk(1)
	fast := mk(8)
	wSlow := slow.ComputeWaitPeriod(20)
	wFast := fast.ComputeWaitPeriod(20)
	if wFast > wSlow {
		t.Fatalf("faster market waits longer: bpp=8 %d > bpp=1 %d", wFast, wSlow)
	}
	if wSlow > 0 && wFast == 0 && wSlow > 8 {
		t.Fatalf("wait collapsed to zero despite long bid count: %d vs %d", wSlow, wFast)
	}
}

func TestResetRestoresInitialBehaviour(t *testing.T) {
	e := MustNew(testConfig())
	var first []Decision
	r := rng.New(5)
	bids := make([]float64, 100)
	for i := range bids {
		bids[i] = r.Uniform(0, 120)
	}
	for _, b := range bids {
		first = append(first, e.SubmitBid(b))
	}
	e.Reset()
	if e.Revenue() != 0 || e.Bids() != 0 || e.Allocations() != 0 || e.Epochs() != 0 {
		t.Fatal("Reset left statistics behind")
	}
	for i, b := range bids {
		if d := e.SubmitBid(b); d != first[i] {
			t.Fatalf("decision %d diverged after Reset: %+v != %+v", i, d, first[i])
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	cfg := testConfig()
	e1 := MustNew(cfg)
	e2 := MustNew(cfg)
	r := rng.New(8)
	for i := 0; i < 300; i++ {
		b := r.Uniform(0, 120)
		if d1, d2 := e1.SubmitBid(b), e2.SubmitBid(b); d1 != d2 {
			t.Fatalf("same-seed engines diverged at %d: %+v vs %+v", i, d1, d2)
		}
	}
}

func TestStringers(t *testing.T) {
	if DrawMW.String() != "MW" || DrawMWMax.String() != "MW-Max" ||
		DrawAdHoc.String() != "AdHoc" || DrawRandom.String() != "Random" {
		t.Error("DrawRule strings")
	}
	if DrawRule(9).String() != "unknown" {
		t.Error("unknown DrawRule string")
	}
	if WaitBound.String() != "Bound" || WaitStable.String() != "Stable" {
		t.Error("WaitStrategy strings")
	}
	if WaitStrategy(9).String() != "unknown" {
		t.Error("unknown WaitStrategy string")
	}
}

func TestRevenueNeverExceedsSumOfWinningBids(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		cfg := testConfig()
		cfg.Seed = seed
		cfg.EpochSize = 1 + rr.Intn(8)
		e := MustNew(cfg)
		var winnersSum float64
		for i := 0; i < 200; i++ {
			b := rr.Uniform(0, 150)
			if d := e.SubmitBid(b); d.Allocated {
				if d.Price > b {
					return false // winner paid above its bid
				}
				winnersSum += b
			}
		}
		return e.Revenue() <= winnersSum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSubmitBid(b *testing.B) {
	cfg := testConfig()
	cfg.EpochSize = 8
	e := MustNew(cfg)
	r := rng.New(1)
	bids := make([]float64, 4096)
	for i := range bids {
		bids[i] = r.Uniform(0, 120)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SubmitBid(bids[i%len(bids)])
	}
}

// BenchmarkComputeWaitPeriod times one wait replay: on the small test
// engine, and on marketd's (40 candidates, epochs of 8, floor 1) after
// 400 epochs of Normal(100, 30) bids, for a bid of 25 — a replay of all
// or nearly all of the 64 epochs — under Bound, Stable and Bound with
// fixed-share mixing. The wait is reported so a change that shortens
// the replay shows.
func BenchmarkComputeWaitPeriod(b *testing.B) {
	serving := Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1, MinBid: 1, Seed: 42}
	stable, share := serving, serving
	stable.Wait, share.ShareFraction = WaitStable, 0.05
	for _, bc := range []struct {
		name      string
		cfg       Config
		teach     func(r *rng.RNG) float64
		probe     float64
		teachBids int
	}{
		{"small", testConfig(), func(*rng.RNG) float64 { return 90 }, 20, 400},
		{"serving/Bound", serving, normalBid, 25, 3200},
		{"serving/Stable", stable, normalBid, 25, 3200},
		{"serving/Bound-share", share, normalBid, 25, 3200},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := MustNew(bc.cfg)
			r := rng.New(7)
			for i := 0; i < bc.teachBids; i++ {
				e.SubmitBid(bc.teach(r))
			}
			var wait int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wait = e.ComputeWaitPeriod(bc.probe)
			}
			b.ReportMetric(float64(wait), "wait")
		})
	}
}

func normalBid(r *rng.RNG) float64 { return math.Max(1, r.Normal(100, 30)) }

// BenchmarkSubmitBidConverged times SubmitBid on marketd's default
// engine after 20 000 Normal(100, 30) bids (2 500 epochs), against
// BenchmarkSubmitBid's fresh one. By then most of the 40 weights are
// subnormal, and a losing bid's Bound wait replay runs its round cap
// multiplying the floor candidate's subnormal weight; the subnormal
// count is reported so a change that keeps weights normal shows.
func BenchmarkSubmitBidConverged(b *testing.B) {
	e := MustNew(Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1, MinBid: 1, Seed: 2022})
	r := rng.New(7)
	for i := 0; i < 20000; i++ {
		e.SubmitBid(normalBid(r))
	}
	bids := make([]float64, 4096)
	for i := range bids {
		bids[i] = normalBid(r)
	}
	subnormal := 0
	for _, w := range e.Weights() {
		if w != 0 && math.Abs(w) < 0x1p-1022 {
			subnormal++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SubmitBid(bids[i%len(bids)])
	}
	b.ReportMetric(float64(subnormal), "subnormal")
}

func TestObserveFeedsEpochWithoutAllocation(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 3
	e := MustNew(cfg)
	before := e.Epochs()
	// Three observations complete an epoch and trigger a price update,
	// but count no bids, allocations or revenue.
	e.Observe(60)
	e.Observe(60)
	e.Observe(60)
	if e.Epochs() != before+1 {
		t.Fatalf("epochs = %d, want %d", e.Epochs(), before+1)
	}
	if e.Bids() != 0 || e.Allocations() != 0 || e.Revenue() != 0 {
		t.Fatalf("observation changed decision statistics: %d/%d/%v",
			e.Bids(), e.Allocations(), e.Revenue())
	}
	// Observations and bids share the epoch buffer.
	e2 := MustNew(cfg)
	e2.Observe(60)
	e2.SubmitBid(60)
	e2.Observe(60)
	if e2.Epochs() != 1 {
		t.Fatalf("mixed epoch did not complete: %d", e2.Epochs())
	}
}

func TestObserveInfluencesLearnedPrice(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 4
	cfg.Rule = DrawMWMax
	e := MustNew(cfg)
	for i := 0; i < 4*100; i++ {
		e.Observe(60)
	}
	if got := e.MostLikelyPrice(); got != 60 {
		t.Fatalf("observations did not teach the engine: likely %v", got)
	}
}
