package experiments

import (
	"fmt"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/dp"
	"github.com/datamarket/shield/internal/expost"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/sim"
	"github.com/datamarket/shield/internal/timeseries"
)

// X1DPAblation compares the paper's MW algorithm against the Section 6.3
// Laplace-mechanism alternative across privacy budgets epsilon, on
// truthful streams: lower epsilon means stronger protection and noisier
// prices, hence lower revenue; MW's revenue is the protection-for-free
// reference the paper argues for.
func X1DPAblation(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	epsilons := []float64{0.1, 0.5, 1, 5, 10, 100}
	xs := make([]string, len(epsilons))
	for i, e := range epsilons {
		xs[i] = fmt.Sprintf("eps=%g", e)
	}
	col := newBoxCollector("epsilon", xs, []string{"MW", "DP-Laplace"})
	// MW ignores epsilon: it runs once and is the reference at every x.
	return col.sweepPoints(truthfulSpec(o, 0.1, 0.01), map[string]sim.PricerFactory{
		"MW": sim.EngineFactory(engineConfig(8)),
	}, func(x int) map[string]sim.PricerFactory {
		return map[string]sim.PricerFactory{"DP-Laplace": sim.DPFactory(dp.Config{
			Epsilon:      epsilons[x],
			MinBid:       0,
			MaxBid:       maxPrice,
			EpochSize:    8,
			InitialPrice: meanValuation,
		})}
	}, sim.Revenues)
}

// ExPostResult summarizes the Section 8 ablation: the same stream of
// returning buyers trading ex-post, once reporting honestly and once
// under-reporting, plus the ex-ante reference.
type ExPostResult struct {
	// Rounds is the number of buyer arrivals simulated per arm.
	Rounds int
	// ExAnteRevenue is the revenue of the standard ex-ante market.
	ExAnteRevenue float64
	// HonestRevenue is ex-post revenue when buyers pay their learned
	// valuation.
	HonestRevenue float64
	// CheatRevenue is ex-post revenue when buyers report only
	// CheatFraction of their valuation.
	CheatRevenue float64
	// CheatFraction is the under-reporting factor.
	CheatFraction float64
	// HonestGrants and CheatGrants count datasets actually obtained:
	// Time-Shield waits and deactivation starve under-reporters.
	HonestGrants, CheatGrants int
	// CheatDeactivated reports whether the under-reporter lost the
	// ex-post option at least once.
	CheatDeactivated bool
}

// X2ExPost runs the ex-post ablation.
func X2ExPost(o Options) (ExPostResult, error) {
	if err := o.resolve(); err != nil {
		return ExPostResult{}, err
	}
	const rounds = 200
	const cheatFraction = 0.3

	valuations := make([]float64, rounds)
	r := rng.New(o.Seed)
	for i := range valuations {
		v := r.Normal(meanValuation, 20)
		if v < bidFloor {
			v = bidFloor
		}
		valuations[i] = v
	}

	engCfg := engineConfig(8)
	engCfg.MaxWaitEpochs = 8

	// Ex-ante reference: one returning buyer bidding truthfully.
	exAnte := expost.MustNew(expost.Config{Engine: engCfg, Seed: o.Seed})
	if err := exAnte.AddDataset("d"); err != nil {
		return ExPostResult{}, err
	}
	if err := exAnte.RegisterBuyer("b"); err != nil {
		return ExPostResult{}, err
	}
	for _, v := range valuations {
		if _, err := exAnte.Bid("b", "d", v); err != nil {
			// Wait active: skip forward.
			exAnte.Tick()
		}
		exAnte.Tick()
	}

	runExPost := func(payFraction float64) (float64, int, bool, error) {
		a := expost.MustNew(expost.Config{Engine: engCfg, Seed: o.Seed})
		if err := a.AddDataset("d"); err != nil {
			return 0, 0, false, err
		}
		if err := a.RegisterBuyer("b"); err != nil {
			return 0, 0, false, err
		}
		grants := 0
		deactivated := false
		for _, v := range valuations {
			g, err := a.Request("b", "d")
			if err != nil {
				a.Tick()
				continue
			}
			grants++
			res, err := a.Pay(g, payFraction*v)
			if err != nil {
				return 0, 0, false, err
			}
			if res.Deactivated {
				deactivated = true
			}
			a.Tick()
		}
		return a.Revenue().Float(), grants, deactivated, nil
	}

	honestRev, honestGrants, _, err := runExPost(1)
	if err != nil {
		return ExPostResult{}, err
	}
	cheatRev, cheatGrants, cheatDeact, err := runExPost(cheatFraction)
	if err != nil {
		return ExPostResult{}, err
	}
	return ExPostResult{
		Rounds:           rounds,
		ExAnteRevenue:    exAnte.Revenue().Float(),
		HonestRevenue:    honestRev,
		CheatRevenue:     cheatRev,
		CheatFraction:    cheatFraction,
		HonestGrants:     honestGrants,
		CheatGrants:      cheatGrants,
		CheatDeactivated: cheatDeact,
	}, nil
}

// WaitPeriodResult is the Section 6.2.2 ablation: Time-Shield wait
// lengths assigned to losing bids of varying depth, under the Bound and
// Stable replay strategies, on an engine warmed to a stationary stream.
type WaitPeriodResult struct {
	// Bids are the losing bid levels probed.
	Bids []float64
	// Bound and Stable are the wait-periods assigned per bid.
	Bound, Stable []int
	// WarmPrice is the most likely price after warmup.
	WarmPrice float64
}

// X3WaitPeriods runs the wait-period ablation.
func X3WaitPeriods(o Options) (WaitPeriodResult, error) {
	if err := o.resolve(); err != nil {
		return WaitPeriodResult{}, err
	}
	warm := func(ws core.WaitStrategy) *core.Engine {
		cfg := engineConfig(8)
		cfg.Rule = core.DrawMWMax
		cfg.Wait = ws
		cfg.MaxWaitEpochs = 256
		cfg.Seed = o.Seed
		e := core.MustNew(cfg)
		for i := 0; i < 8*30; i++ {
			e.SubmitBid(0.9 * meanValuation)
		}
		return e
	}
	bound := warm(core.WaitBound)
	stable := warm(core.WaitStable)
	res := WaitPeriodResult{WarmPrice: bound.MostLikelyPrice()}
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		b := frac * meanValuation
		res.Bids = append(res.Bids, b)
		res.Bound = append(res.Bound, bound.ComputeWaitPeriod(b))
		res.Stable = append(res.Stable, stable.ComputeWaitPeriod(b))
	}
	return res, nil
}

// InterleavingResult is the X4 ablation output: per PCT, the fraction of
// E=8 epochs whose Equation-2 revenue optimum collapses to a low price
// (below 25% of the mean valuation), when strategic buyers bid
// concurrently (interleaved) versus in per-buyer bursts.
type InterleavingResult struct {
	PCTs []float64
	// Interleaved and Burst are mean collapsed-epoch fractions per PCT.
	Interleaved, Burst []float64
}

// X4Interleaving measures the mechanism behind the reproduction's
// interleaving decision (DESIGN.md §4): low bids harm a small-epoch
// update algorithm only when they dominate whole epochs, which happens
// under concurrent bidding but almost never when each buyer's H-1 low
// bids arrive as a burst shorter than the epoch.
func X4Interleaving(o Options) (InterleavingResult, error) {
	if err := o.resolve(); err != nil {
		return InterleavingResult{}, err
	}
	res := InterleavingResult{PCTs: PCTGrid()}
	const epochSize = 8
	collapseThreshold := 0.25 * meanValuation

	collapsedFrac := func(pct float64, burst bool) (float64, error) {
		var total float64
		for s := 0; s < o.Series; s++ {
			seed := o.Seed + uint64(s)*2654435761
			genR := rng.New(seed)
			vals, err := timeseries.GenerateValuations(arConfig(0.1, 0.01), genR)
			if err != nil {
				return 0, err
			}
			scfg := timeseries.StrategicConfig{
				PCT: pct, Beta: 0, Horizon: defaultH, Floor: bidFloor, Burst: burst,
			}
			stream, err := timeseries.Transform(vals, scfg, genR.Split())
			if err != nil {
				return 0, err
			}
			amounts := timeseries.Amounts(stream)
			epochs, collapsed := 0, 0
			for i := 0; i+epochSize <= len(amounts); i += epochSize {
				p, _ := auction.OptimalPrice(amounts[i : i+epochSize])
				epochs++
				if p < collapseThreshold {
					collapsed++
				}
			}
			if epochs > 0 {
				total += float64(collapsed) / float64(epochs)
			}
		}
		return total / float64(o.Series), nil
	}

	for _, pct := range res.PCTs {
		il, err := collapsedFrac(pct, false)
		if err != nil {
			return InterleavingResult{}, err
		}
		bu, err := collapsedFrac(pct, true)
		if err != nil {
			return InterleavingResult{}, err
		}
		res.Interleaved = append(res.Interleaved, il)
		res.Burst = append(res.Burst, bu)
	}
	return res, nil
}

// X5AdaptiveGrid compares the fixed candidate grid (the paper's setting)
// against the adaptive re-gridding extension on truthful streams, as the
// candidate budget shrinks: with few experts a fixed grid prices in
// coarse steps, while the adaptive grid zooms into the demand region and
// recovers most of the lost resolution. The paper fixes P "for the sake
// of presentation"; this ablation quantifies what a deployment gains by
// not fixing it.
func X5AdaptiveGrid(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	budgets := []int{4, 6, 8, 16, 40}
	xs := make([]string, len(budgets))
	for i, n := range budgets {
		xs[i] = fmt.Sprintf("n=%d", n)
	}
	// Concentrated demand (valuations ~100 +- 5) against the full
	// [1, 200] candidate range: this is the regime where grid resolution
	// matters — a coarse fixed grid has no candidate near the demand
	// point, an adaptive one zooms onto it. With a generous budget,
	// fixed and adaptive tie (the n=40 column shows convergence). The
	// stream is longer than the paper's windows (1000 bids, E=4) because
	// zooming needs a few dozen regrids to amortize.
	spec := truthfulSpec(o, 0.1, 0.01)
	spec.AR.Scale = 5
	spec.AR.N = 1000
	col := newBoxCollector("candidates", xs, []string{"fixed", "adaptive"})
	return col.sweepPoints(spec, nil, func(x int) map[string]sim.PricerFactory {
		cfg := engineConfig(4)
		cfg.Candidates = auction.LinearGrid(bidFloor, maxPrice, budgets[x])
		adaptive := cfg
		adaptive.RegridEvery = 4
		return map[string]sim.PricerFactory{
			"fixed":    sim.EngineFactory(cfg),
			"adaptive": sim.EngineFactory(adaptive),
		}
	}, sim.Revenues)
}

// X6DriftTracking compares drift-tracking mechanisms on persistent
// (high-AR) valuation processes, where the revenue-optimal price moves
// over time: plain MW (commits to stale experts), fixed-share mixing
// (Herbster-Warmuth: keeps a weight floor so switches are fast), the
// adaptive grid, and both combined. Longer 1000-bid streams let drift
// actually unfold.
func X6DriftTracking(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	ars := []float64{0.5, 0.9, 0.99, 0.999}
	xs := make([]string, len(ars))
	for i, ar := range ars {
		xs[i] = fmt.Sprintf("AR=%.3g", ar)
	}
	order := []string{"MW", "MW+share", "MW+regrid", "MW+both"}
	col := newBoxCollector("AR", xs, order)
	col.perX = true // raw revenue scales differ per AR process
	base := engineConfig(4)
	variants := map[string]func() core.Config{
		"MW": func() core.Config { return base },
		"MW+share": func() core.Config {
			c := base
			c.ShareFraction = 0.02
			return c
		},
		"MW+regrid": func() core.Config {
			c := base
			c.RegridEvery = 8
			return c
		},
		"MW+both": func() core.Config {
			c := base
			c.ShareFraction = 0.02
			c.RegridEvery = 8
			return c
		},
	}
	factories := make(map[string]sim.PricerFactory, len(variants))
	for name, mk := range variants {
		factories[name] = sim.EngineFactory(mk())
	}
	specs := make([]sim.Spec, len(ars))
	for i, ar := range ars {
		specs[i] = truthfulSpec(o, ar, 0.01)
		specs[i].AR.N = 1000
	}
	return col.sweep(specs, factories, sim.Revenues)
}

// MarketIntegration is a smoke experiment over the full market substrate:
// buyers with deadlines trading three datasets (one derived) through the
// arbiter, verifying ledger conservation end to end. It returns the
// market's final books.
type MarketIntegrationResult struct {
	Revenue        float64
	SellerBalances map[string]float64
	Transactions   int
}

// MarketIntegration runs the smoke experiment.
func MarketIntegration(o Options) (MarketIntegrationResult, error) {
	if err := o.resolve(); err != nil {
		return MarketIntegrationResult{}, err
	}
	m := market.MustNew(market.Config{Engine: engineConfig(4), Seed: o.Seed})
	for _, s := range []market.SellerID{"s1", "s2"} {
		if err := m.RegisterSeller(s); err != nil {
			return MarketIntegrationResult{}, err
		}
	}
	if err := m.UploadDataset("s1", "a"); err != nil {
		return MarketIntegrationResult{}, err
	}
	if err := m.UploadDataset("s2", "b"); err != nil {
		return MarketIntegrationResult{}, err
	}
	if err := m.ComposeDataset("ab", "a", "b"); err != nil {
		return MarketIntegrationResult{}, err
	}
	r := rng.New(o.Seed)
	for i := 0; i < 150; i++ {
		buyer := market.BuyerID(fmt.Sprintf("buyer-%d", i))
		if err := m.RegisterBuyer(buyer); err != nil {
			return MarketIntegrationResult{}, err
		}
		for _, ds := range []market.DatasetID{"a", "b", "ab"} {
			amount := r.Normal(meanValuation, 25)
			if amount < bidFloor {
				amount = bidFloor
			}
			if _, err := m.SubmitBid(buyer, ds, amount); err != nil {
				return MarketIntegrationResult{}, err
			}
		}
		m.Tick()
	}
	res := MarketIntegrationResult{
		Revenue:        m.Revenue().Float(),
		SellerBalances: make(map[string]float64),
		Transactions:   m.TxCount(),
	}
	for _, s := range []market.SellerID{"s1", "s2"} {
		bal, err := m.SellerBalance(s)
		if err != nil {
			return MarketIntegrationResult{}, err
		}
		res.SellerBalances[string(s)] = bal.Float()
	}
	return res, nil
}
