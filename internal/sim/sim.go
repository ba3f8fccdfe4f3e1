// Package sim is the simulation harness for the paper's evaluation
// (Sections 7.2-7.3): it replays transformed bid streams through pricing
// engines and baselines behind one interface, measures revenue and buyer
// social surplus, and aggregates across the paper's 100 random series per
// configuration into the percentile boxes the figures report.
//
// A figure is a sweep of Specs, each over independent random series:
// RunGrid spreads the (spec, series) pairs over GOMAXPROCS cores and
// returns a serial walk's result bit for bit (DESIGN.md §4, "Parallel
// sweeps").
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/timeseries"
)

// Pricer is the uniform interface the harness sweeps over: the paper's
// MW engine, the avg/p50/Random/AdHoc baselines, the DP mechanism, and
// the offline Opt all fit it.
type Pricer interface {
	// Decide evaluates one bid, returning the allocation decision and the
	// posting price it was evaluated against, and updates internal state.
	Decide(bid float64) (allocated bool, price float64)
	// Reset restores the initial state (same randomness).
	Reset()
}

// EnginePricer adapts a core.Engine to Pricer.
type EnginePricer struct{ E *core.Engine }

// Decide implements Pricer.
func (p EnginePricer) Decide(bid float64) (bool, float64) {
	d := p.E.SubmitBid(bid)
	return d.Allocated, d.Price
}

// Reset implements Pricer.
func (p EnginePricer) Reset() { p.E.Reset() }

// StreamPricerAdapter adapts an auction.StreamPricer (avg, p50, Random,
// Opt, the DP mechanism) to Pricer using posting-price semantics: bids at
// or above the current positive price win and pay it; every bid is then
// observed.
type StreamPricerAdapter struct{ P auction.StreamPricer }

// Decide implements Pricer.
func (a StreamPricerAdapter) Decide(bid float64) (bool, float64) {
	price := a.P.PostingPrice()
	allocated := price > 0 && bid >= price
	a.P.ObserveBid(bid)
	return allocated, price
}

// Reset implements Pricer.
func (a StreamPricerAdapter) Reset() { a.P.Reset() }

// Result measures one replay.
type Result struct {
	// Revenue is the total raised from winning bids.
	Revenue float64
	// Surplus is the buyer social surplus: sum of (valuation - price)
	// over allocations (Section 3.3).
	Surplus float64
	// Allocations counts winning bids; Bids counts submitted bids.
	Allocations, Bids int
}

// Replay runs stream through p. When skipWon is true (the realistic
// setting), a buyer who has already won stops bidding: its remaining
// stream entries are dropped, since a buyer needs the dataset only once.
// Winners are kept in a slice indexed by Bid.Buyer and sized by the
// largest: Buyer must be >= 0 and is expected to be what
// timeseries.Transform produces, an index into the valuation series.
func Replay(p Pricer, stream []timeseries.Bid, skipWon bool) Result {
	var res Result
	var won []bool
	if skipWon {
		last := -1
		for _, b := range stream {
			last = max(last, b.Buyer)
		}
		won = make([]bool, last+1)
	}
	for _, b := range stream {
		if skipWon && won[b.Buyer] {
			continue
		}
		allocated, price := p.Decide(b.Amount)
		res.Bids++
		if allocated {
			res.Allocations++
			res.Revenue += price
			res.Surplus += market.Surplus(b.Valuation, price, true)
			if skipWon {
				won[b.Buyer] = true
			}
		}
	}
	return res
}

// Spec describes one simulated market configuration: the valuation
// process, the strategic transform, and how many independent series to
// aggregate. The paper uses 100 series of 250 points.
type Spec struct {
	AR        timeseries.ARConfig
	Strategic timeseries.StrategicConfig
	// Series is the number of random series (0 selects 100).
	Series int
	// BaseSeed derives the per-series generator and transform seeds.
	BaseSeed uint64
	// KeepWonBids replays every bid; by default a buyer who has won stops
	// bidding (Replay's skipWon).
	KeepWonBids bool
	// Window truncates each transformed stream to at most this many bids
	// (0 keeps the whole stream). The paper measures fixed-length
	// observation windows of an ongoing market: strategic buyers fill
	// the window with low bids and many of their truthful final bids fall
	// beyond it — that displacement, not the low bids' sale value, is
	// how strategizing starves revenue.
	Window int
}

// PricerFactory builds a fresh pricer for one series. seed is unique per
// (factory, series) pair; hindsight is the full bid stream the pricer
// will face, supplied so the Opt baseline can compute the optimal fixed
// posting price in hindsight — online pricers must ignore it.
type PricerFactory func(seed uint64, hindsight []float64) Pricer

// Run is RunGrid over the one spec.
func Run(spec Spec, factories map[string]PricerFactory) (map[string][]Result, error) {
	out, err := RunGrid([]Spec{spec}, factories)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunGrid generates each spec's Series random series, replays each
// through every factory's pricer, and returns per spec the per-factory
// Results in series order. Every factory faces the identical stream for
// a given (spec, series) pair.
//
// The pairs are independent, each seeded on its own, so GOMAXPROCS
// goroutines — the caller one of them, all returned before RunGrid is —
// claim them one at a time and call the factories concurrently. A pair
// writes only its own slots of the pre-sized output, and the error is
// the lowest failing pair's, so result and error are a serial walk's at
// any core count. Give a sweep's points to one call, not to a Run each:
// every fan-out strands goroutine descriptors on the other Ps (DESIGN.md
// §4, "Parallel sweeps").
func RunGrid(specs []Spec, factories map[string]PricerFactory) ([]map[string][]Result, error) {
	if len(factories) == 0 {
		return nil, errors.New("sim: no pricer factories")
	}
	out := make([]map[string][]Result, len(specs))
	// Pairs first[i] to first[i+1]-1 are spec i's series.
	first := make([]int, len(specs)+1)
	for i, spec := range specs {
		series := spec.Series
		if series == 0 {
			series = 100
		}
		if series < 1 {
			return nil, errors.New("sim: Series must be >= 1")
		}
		first[i+1] = first[i] + series
		out[i] = make(map[string][]Result, len(factories))
		for name := range factories {
			out[i][name] = make([]Result, series)
		}
	}
	pairs := first[len(specs)]
	// Pairs are claimed in rising order, so when one fails every pair
	// below it is already claimed and will finish: the lowest failure
	// seen is the lowest there is.
	var (
		next     atomic.Int64
		mu       sync.Mutex
		failedAt = pairs
		failure  error
	)
	work := func() {
		for {
			pair := int(next.Add(1)) - 1
			if pair >= pairs {
				return
			}
			i := sort.SearchInts(first, pair+1) - 1
			if err := runPair(specs[i], pair-first[i], factories, out[i]); err != nil {
				next.Store(int64(pairs))
				mu.Lock()
				if pair < failedAt {
					failedAt, failure = pair, err
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), pairs); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failure != nil {
		return nil, failure
	}
	return out, nil
}

// runPair generates series s of spec and writes every factory's replay
// of it to out[name][s].
func runPair(spec Spec, s int, factories map[string]PricerFactory, out map[string][]Result) error {
	seed := spec.BaseSeed + uint64(s)*2654435761
	genR := rng.New(seed)
	vals, err := timeseries.GenerateValuations(spec.AR, genR)
	if err != nil {
		return fmt.Errorf("sim: series %d: %w", s, err)
	}
	stream, err := timeseries.Transform(vals, spec.Strategic, genR.Split())
	if err != nil {
		return fmt.Errorf("sim: series %d: %w", s, err)
	}
	if spec.Window > 0 && len(stream) > spec.Window {
		// A window is a stationary snapshot of an ongoing market:
		// the buyers observed mid-window are at arbitrary phases of
		// their bidding plans (some started before the window, some
		// finish after it). Shuffle fully before truncating so the
		// window composition matches the steady-state bid mix rather
		// than the transient where every buyer has just arrived.
		shuf := rng.New(seed ^ 0x9e3779b97f4a7c15)
		shuffleBids(stream, shuf)
		stream = stream[:spec.Window]
	}
	hindsight := timeseries.Amounts(stream)
	for name, mk := range factories {
		out[name][s] = Replay(mk(seed, hindsight), stream, !spec.KeepWonBids)
	}
	return nil
}

// shuffleBids is a Fisher-Yates shuffle over a bid stream.
func shuffleBids(s []timeseries.Bid, r *rng.RNG) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Revenues projects the revenue samples out of results.
func Revenues(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Revenue
	}
	return out
}

// Surpluses projects the surplus samples out of results.
func Surpluses(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Surplus
	}
	return out
}

// NormalizeAcross rescales every sample in the map by the single largest
// sample across all keys, mirroring the paper's "normalized to the
// maximum value" presentation. It returns a new map.
func NormalizeAcross(samples map[string][]float64) map[string][]float64 {
	var max float64
	for _, xs := range samples {
		if m := stats.Max(xs); m > max {
			max = m
		}
	}
	out := make(map[string][]float64, len(samples))
	for k, xs := range samples {
		out[k] = stats.NormalizeBy(xs, max)
	}
	return out
}

// SummarizeAll computes the box-plot summary per key.
func SummarizeAll(samples map[string][]float64) map[string]stats.Summary {
	out := make(map[string]stats.Summary, len(samples))
	for k, xs := range samples {
		out[k] = stats.Summarize(xs)
	}
	return out
}
