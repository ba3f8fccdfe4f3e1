// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7) plus the design-choice ablations DESIGN.md
// calls out. Each experiment is a pure function of an Options value, so
// the CLI (cmd/marketsim), the benchmark harness (bench_test.go), and
// EXPERIMENTS.md all regenerate identical numbers — at any core count:
// a simulated figure hands all its sweep points to one sim.RunGrid, and
// testdata/golden.json pins every result's digest.
package experiments

import (
	"errors"
	"fmt"
	"maps"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/sim"
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/timeseries"
)

// Options controls experiment scale; the zero value reproduces the
// paper's settings.
type Options struct {
	// Series is the number of random series per configuration
	// (0 selects the paper's 100).
	Series int
	// Panel is the user-study panel size (0 selects the paper's 50).
	Panel int
	// Seed seeds everything (0 selects 2022).
	Seed uint64
}

// ErrNegativeOption is what every experiment returns for a negative
// Series or Panel.
var ErrNegativeOption = errors.New("experiments: Series and Panel must be >= 0")

// resolve fills in the defaults; every experiment calls it first.
func (o *Options) resolve() error {
	if o.Series < 0 || o.Panel < 0 {
		return ErrNegativeOption
	}
	if o.Series == 0 {
		o.Series = 100
	}
	if o.Panel == 0 {
		o.Panel = 50
	}
	if o.Seed == 0 {
		o.Seed = 2022
	}
	return nil
}

// Simulation-wide constants: valuations fluctuate around 100 with the
// market's minimum admissible bid at 1 — an artificially low bid is
// nearly worthless to sell to. The posting-price candidates span the
// whole bid range, floor included, so concurrent low bids can drag a
// small-epoch update algorithm to the floor (the overfitting attack of
// Section 3 that Epoch-Shield defends against). Every simulated series is
// a fixed 250-bid observation window: strategic buyers displace truthful
// demand out of the window, which is how strategizing starves revenue
// even when the pricing holds firm.
const (
	meanValuation = 100
	bidFloor      = 1
	maxPrice      = 200
	numCandidates = 40
	defaultH      = 4
	window        = 250
)

// candidates returns the standard posting-price candidate grid.
func candidates() []float64 {
	return auction.LinearGrid(bidFloor, maxPrice, numCandidates)
}

// engineConfig returns the standard MW engine template at epoch size E.
func engineConfig(epoch int) core.Config {
	return core.Config{
		Candidates:    candidates(),
		EpochSize:     epoch,
		BidsPerPeriod: 1,
		MinBid:        bidFloor,
	}
}

// arConfig returns the valuation process at the given AR coefficient.
func arConfig(ar, sigma float64) timeseries.ARConfig {
	return timeseries.ARConfig{
		AR:    ar,
		Sigma: sigma,
		Mean:  meanValuation,
		Floor: bidFloor,
		N:     250,
	}
}

// PCTGrid is the strategic-buyer-ratio sweep used by Figures 3b, 3c, 4b,
// 4c and 5a.
func PCTGrid() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// EpochGrid is the epoch-size sweep of Figures 3b/3c and 4a.
func EpochGrid() []int { return []int{1, 2, 4, 8, 16} }

// BetaGrid is the strategic-bid sweep of Figures 4b/4c ("min" is beta=0:
// bids at the floor).
func BetaGrid() []float64 { return []float64{0, 0.25, 0.5, 0.75} }

// BetaLabel renders a beta value as the paper labels it.
func BetaLabel(beta float64) string {
	if beta == 0 {
		return "min"
	}
	return fmt.Sprintf("%.2g", beta)
}

// BoxSeries is a family of box-plot summaries over a common x-axis: one
// labeled group per algorithm/configuration, one Summary per x position,
// computed from samples normalized to the maximum across the whole
// figure (the paper's presentation).
type BoxSeries struct {
	// XLabel names the x-axis; Xs are its positions in order.
	XLabel string
	Xs     []string
	// Order lists group names in presentation order.
	Order []string
	// Groups maps group name to one Summary per x position.
	Groups map[string][]stats.Summary
}

// cell identifies one (group, x) sample vector during collection.
type cell struct {
	group string
	x     int
}

// boxCollector gathers raw samples and normalizes at the end. With perX
// set, samples normalize to the maximum at their own x position (used
// when x positions have incomparable raw scales, e.g. different AR
// processes in Figure 3a); otherwise one global maximum normalizes the
// whole figure.
type boxCollector struct {
	xlabel  string
	xs      []string
	order   []string
	perX    bool
	samples map[cell][]float64
}

func newBoxCollector(xlabel string, xs []string, order []string) *boxCollector {
	return &boxCollector{
		xlabel:  xlabel,
		xs:      xs,
		order:   order,
		samples: make(map[cell][]float64),
	}
}

func (b *boxCollector) add(group string, x int, samples []float64) {
	b.samples[cell{group, x}] = samples
}

// sweep runs factories over specs, one per x position, in one grid, and
// summarizes measure of each factory's results as the group of its name.
func (b *boxCollector) sweep(specs []sim.Spec, factories map[string]sim.PricerFactory, measure func([]sim.Result) []float64) (BoxSeries, error) {
	grid, err := sim.RunGrid(specs, factories)
	if err != nil {
		return BoxSeries{}, err
	}
	for x, results := range grid {
		for name, rs := range results {
			b.add(name, x, measure(rs))
		}
	}
	return b.finish(), nil
}

// sweepPoints runs spec through every x position's factories in one
// sim.Run and summarizes measure of each as its group at that x. A shared
// factory is the same at every x, so it runs once and fills its group at
// every position; at(x) gives the rest, keyed by group.
func (b *boxCollector) sweepPoints(spec sim.Spec, shared map[string]sim.PricerFactory, at func(x int) map[string]sim.PricerFactory, measure func([]sim.Result) []float64) (BoxSeries, error) {
	factories := map[string]sim.PricerFactory{}
	maps.Copy(factories, shared)
	for x, label := range b.xs {
		for g, f := range at(x) {
			factories[g+"@"+label] = f
		}
	}
	results, err := sim.Run(spec, factories)
	if err != nil {
		return BoxSeries{}, err
	}
	for x, label := range b.xs {
		for _, g := range b.order {
			rs, ok := results[g+"@"+label]
			if !ok {
				rs = results[g]
			}
			b.add(g, x, measure(rs))
		}
	}
	return b.finish(), nil
}

// finish normalizes samples and summarizes.
func (b *boxCollector) finish() BoxSeries {
	maxAt := func(x int) float64 {
		var max float64
		for _, g := range b.order {
			if m := stats.Max(b.samples[cell{g, x}]); m > max {
				max = m
			}
		}
		return max
	}
	var globalMax float64
	if !b.perX {
		for x := range b.xs {
			if m := maxAt(x); m > globalMax {
				globalMax = m
			}
		}
	}
	out := BoxSeries{
		XLabel: b.xlabel,
		Xs:     b.xs,
		Order:  b.order,
		Groups: make(map[string][]stats.Summary, len(b.order)),
	}
	for _, g := range b.order {
		sums := make([]stats.Summary, len(b.xs))
		for x := range b.xs {
			denom := globalMax
			if b.perX {
				denom = maxAt(x)
			}
			sums[x] = stats.Summarize(stats.NormalizeBy(b.samples[cell{g, x}], denom))
		}
		out.Groups[g] = sums
	}
	return out
}

// HeatmapResult is a Figure 5b/5c style grid of normalized mean revenue
// over horizon x strategic-bid.
type HeatmapResult struct {
	PCT      float64
	Horizons []int
	Betas    []float64
	// Values[h][b] is the mean revenue for Horizons[h] x Betas[b],
	// normalized to the maximum cell.
	Values [][]float64
}
