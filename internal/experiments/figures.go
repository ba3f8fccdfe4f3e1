package experiments

import (
	"fmt"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/sim"
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/timeseries"
)

// truthfulSpec returns a PCT=0 spec at the default AR point.
func truthfulSpec(o Options, ar, sigma float64) sim.Spec {
	return sim.Spec{
		AR:        arConfig(ar, sigma),
		Strategic: timeseries.StrategicConfig{PCT: 0, Beta: 0, Horizon: 1, Floor: bidFloor},
		Series:    o.Series,
		BaseSeed:  o.Seed,
	}
}

// strategicSpec returns a spec with the given strategic triple, measured
// over the standard 250-bid observation window.
func strategicSpec(o Options, pct, beta float64, horizon int) sim.Spec {
	return sim.Spec{
		AR:        arConfig(0.1, 0.01),
		Strategic: timeseries.StrategicConfig{PCT: pct, Beta: beta, Horizon: horizon, Floor: bidFloor},
		Series:    o.Series,
		BaseSeed:  o.Seed,
		Window:    window,
	}
}

// Fig3a reproduces Figure 3a: normalized revenue of the offline-optimal
// posting price (Opt) and the MW engine across the paper's AR
// parameterizations (footnote 8), on truthful streams.
func Fig3a(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	grid := timeseries.PaperARGrid()
	xs := make([]string, len(grid))
	for i, p := range grid {
		xs[i] = fmt.Sprintf("AR=%.3g", p[0])
	}
	col := newBoxCollector("AR", xs, []string{"Opt", "MW"})
	// Different AR coefficients produce valuation series with wildly
	// different total value (AR=0.999 wanders far from the mean), so
	// normalize within each AR point rather than across the figure.
	col.perX = true
	specs := make([]sim.Spec, len(grid))
	for i, p := range grid {
		specs[i] = truthfulSpec(o, p[0], p[1])
	}
	return col.sweep(specs, map[string]sim.PricerFactory{
		"Opt": sim.OptFactory(),
		"MW":  sim.EngineFactory(engineConfig(8)),
	}, sim.Revenues)
}

// fig3 runs the Epoch-Shield sweep of Figures 3b/3c: epoch sizes against
// growing PCT with strategic buyers bidding the minimum over horizon H.
func fig3(o Options, measure func([]sim.Result) []float64) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	pcts := PCTGrid()
	xs := make([]string, len(pcts))
	for i, p := range pcts {
		xs[i] = fmt.Sprintf("%.1f", p)
	}
	epochs := EpochGrid()
	order := make([]string, len(epochs))
	factories := make(map[string]sim.PricerFactory, len(epochs))
	for i, e := range epochs {
		name := fmt.Sprintf("E=%d", e)
		order[i] = name
		factories[name] = sim.EngineFactory(engineConfig(e))
	}
	specs := make([]sim.Spec, len(pcts))
	for i, pct := range pcts {
		specs[i] = strategicSpec(o, pct, 0, defaultH)
	}
	return newBoxCollector("PCT", xs, order).sweep(specs, factories, measure)
}

// Fig3b reproduces Figure 3b: normalized revenue of epoch sizes
// E in {1,2,4,8,16} as PCT grows (strategic buyers bid the minimum).
func Fig3b(o Options) (BoxSeries, error) { return fig3(o, sim.Revenues) }

// Fig3c reproduces Figure 3c: normalized social surplus for the same
// sweep.
func Fig3c(o Options) (BoxSeries, error) { return fig3(o, sim.Surpluses) }

// Fig4a reproduces Figure 4a: normalized revenue of the draw rules — MW
// (the paper's Uncertainty-Shield implementation), MW-Max (deterministic,
// no protection), AdHoc (random neighborhood of the argmax), and Random —
// across epoch sizes on truthful streams.
func Fig4a(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	epochs := EpochGrid()
	xs := make([]string, len(epochs))
	for i, e := range epochs {
		xs[i] = fmt.Sprintf("E=%d", e)
	}
	order := []string{"MW-Max", "MW", "AdHoc", "Random"}
	col := newBoxCollector("epoch", xs, order)
	// AdHoc must randomize over a neighborhood wide enough to provide
	// protection comparable to MW's weight-proportional sampling — a
	// +-1-step neighborhood would be predictable (no Uncertainty-Shield
	// at all). Width 6 of the 40-candidate grid (+-15% of the price
	// range) is the fair comparison.
	adhoc := engineConfig(0) // epoch filled per sweep point below
	adhoc.AdHocNeighborhood = 6
	return col.sweepPoints(truthfulSpec(o, 0.1, 0.01), nil, func(x int) map[string]sim.PricerFactory {
		e := epochs[x]
		adhocCfg := adhoc
		adhocCfg.EpochSize = e
		return map[string]sim.PricerFactory{
			"MW-Max": sim.RuleFactory(engineConfig(e), core.DrawMWMax),
			"MW":     sim.RuleFactory(engineConfig(e), core.DrawMW),
			"AdHoc":  sim.RuleFactory(adhocCfg, core.DrawAdHoc),
			"Random": sim.RuleFactory(engineConfig(e), core.DrawRandom),
		}
	}, sim.Revenues)
}

// fig4bc runs the Time-Shield sweep of Figures 4b/4c: E=8, strategic-bid
// beta against growing PCT.
func fig4bc(o Options, measure func([]sim.Result) []float64) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	pcts := PCTGrid()
	xs := make([]string, len(pcts))
	for i, p := range pcts {
		xs[i] = fmt.Sprintf("%.1f", p)
	}
	betas := BetaGrid()
	order := make([]string, len(betas))
	for i, b := range betas {
		order[i] = BetaLabel(b)
	}
	var specs []sim.Spec
	for _, pct := range pcts {
		for _, beta := range betas {
			specs = append(specs, strategicSpec(o, pct, beta, defaultH))
		}
	}
	grid, err := sim.RunGrid(specs, map[string]sim.PricerFactory{
		"MW": sim.EngineFactory(engineConfig(8)),
	})
	if err != nil {
		return BoxSeries{}, err
	}
	col := newBoxCollector("PCT", xs, order)
	for i, results := range grid { // PCT-major, as specs was built
		col.add(order[i%len(betas)], i/len(betas), measure(results["MW"]))
	}
	return col.finish(), nil
}

// Fig4b reproduces Figure 4b: normalized revenue for different strategic
// bids beta as PCT increases (E=8). Time-Shield's effect is equivalent to
// raising beta, which raises revenue.
func Fig4b(o Options) (BoxSeries, error) { return fig4bc(o, sim.Revenues) }

// Fig4c reproduces Figure 4c: normalized social surplus for the same
// sweep.
func Fig4c(o Options) (BoxSeries, error) { return fig4bc(o, sim.Surpluses) }

// Fig5a reproduces Figure 5a: normalized revenue of the update
// algorithms avg, p50 (median), MW, and Opt as PCT increases.
func Fig5a(o Options) (BoxSeries, error) {
	if err := o.resolve(); err != nil {
		return BoxSeries{}, err
	}
	pcts := PCTGrid()
	xs := make([]string, len(pcts))
	for i, p := range pcts {
		xs[i] = fmt.Sprintf("%.1f", p)
	}
	order := []string{"Opt", "MW", "avg", "p50"}
	specs := make([]sim.Spec, len(pcts))
	for i, pct := range pcts {
		specs[i] = strategicSpec(o, pct, 0, defaultH)
	}
	return newBoxCollector("PCT", xs, order).sweep(specs, map[string]sim.PricerFactory{
		"Opt": sim.OptFactory(),
		"MW":  sim.EngineFactory(engineConfig(8)),
		"avg": sim.EpochSummaryFactory(8, auction.AvgSummary, meanValuation),
		"p50": sim.EpochSummaryFactory(8, auction.MedianSummary, meanValuation),
	}, sim.Revenues)
}

// fig5Heatmap runs the horizon x beta revenue heat map at one PCT.
func fig5Heatmap(o Options, pct float64) (HeatmapResult, error) {
	if err := o.resolve(); err != nil {
		return HeatmapResult{}, err
	}
	horizons := []int{1, 2, 3, 4, 5, 6, 7, 8}
	betas := []float64{0, 0.25, 0.5, 0.75, 0.9}
	res := HeatmapResult{
		PCT:      pct,
		Horizons: horizons,
		Betas:    betas,
		Values:   make([][]float64, len(horizons)),
	}
	var specs []sim.Spec
	for _, h := range horizons {
		for _, beta := range betas {
			specs = append(specs, strategicSpec(o, pct, beta, h))
		}
	}
	grid, err := sim.RunGrid(specs, map[string]sim.PricerFactory{
		"MW": sim.EngineFactory(engineConfig(8)),
	})
	if err != nil {
		return HeatmapResult{}, err
	}
	var max float64
	for hi := range horizons {
		res.Values[hi] = make([]float64, len(betas))
		for bi := range betas {
			mean := stats.Mean(sim.Revenues(grid[hi*len(betas)+bi]["MW"]))
			res.Values[hi][bi] = mean
			if mean > max {
				max = mean
			}
		}
	}
	if max > 0 {
		for hi := range res.Values {
			for bi := range res.Values[hi] {
				res.Values[hi][bi] /= max
			}
		}
	}
	return res, nil
}

// Fig5b reproduces Figure 5b: normalized revenue as a function of
// horizon and strategic bid at PCT=0.5.
func Fig5b(o Options) (HeatmapResult, error) { return fig5Heatmap(o, 0.5) }

// Fig5c reproduces Figure 5c: the same at PCT=0.9.
func Fig5c(o Options) (HeatmapResult, error) { return fig5Heatmap(o, 0.9) }
