// Package sim is the simulation harness for the paper's evaluation
// (Sections 7.2-7.3): it replays transformed bid streams through pricing
// engines and baselines behind one interface, measures revenue and buyer
// social surplus, and aggregates across the paper's 100 random series per
// configuration into the percentile boxes the figures report.
//
// A figure is a sweep of Specs, each over independent random series:
// RunGrid draws each series once for all the specs that differ only in
// the bid level, spreads those units over GOMAXPROCS cores and returns a
// serial walk's result bit for bit (DESIGN.md §4, "Parallel sweeps").
package sim

import (
	"cmp"
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
	"github.com/datamarket/shield/internal/timeseries"
)

// Pricer is the uniform interface the harness sweeps over: the paper's
// MW engine, the avg/p50/Random/AdHoc baselines, the DP mechanism, and
// the offline Opt all fit it.
type Pricer interface {
	// Decide evaluates one bid, returning the allocation decision and the
	// posting price it was evaluated against, and updates internal state.
	Decide(bid float64) (allocated bool, price float64)
}

// EnginePricer adapts a core.Engine to Pricer.
type EnginePricer struct{ E *core.Engine }

// Decide implements Pricer.
func (p EnginePricer) Decide(bid float64) (bool, float64) {
	d := p.E.SubmitBid(bid)
	return d.Allocated, d.Price
}

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
	res, _ := replay(p, stream, skipWon, nil)
	return res
}

// replay is Replay keeping the winners in won's storage, grown when too
// small, which it returns for the next replay.
func replay(p Pricer, stream []timeseries.Bid, skipWon bool, won []bool) (Result, []bool) {
	var res Result
	if skipWon {
		last := -1
		for _, b := range stream {
			last = max(last, b.Buyer)
		}
		won = cleared(won, last+1)
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
	return res, won
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

// PricerFactory returns the pricer for one series, which must decide as
// one newly built for seed would. seed is unique per (factory, series)
// pair; hindsight is the full bid stream the pricer will face, supplied
// so the Opt baseline can compute the optimal fixed posting price in
// hindsight — online pricers must ignore it. It is valid during the call
// only: RunGrid reuses its storage. prev is nil on a sweep worker's first
// series; after that it is the pricer the factory returned to the same
// worker, its replay finished, which the factory may reset and return.
type PricerFactory func(prev Pricer, seed uint64, hindsight []float64) Pricer

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
// No draw depends on Strategic.Beta, Strategic.Floor or KeepWonBids, so
// specs that differ only in those share a group, and a unit of work is
// one (group, series): its valuations, strategic choices, riffle and
// window shuffle are drawn once, then each spec rebids the low bids at
// its own LowBid and replays. Units are independent, each seeded on its
// own, so GOMAXPROCS goroutines — the caller one of them, all returned
// before RunGrid is — claim them one at a time, keep their buffers and
// pricers across the units they claim and call the factories
// concurrently. A unit writes only its own slots of the pre-sized
// output, and every spec is validated before any unit runs, so result
// and error are a serial walk's at any core count. Give a sweep's points to one call, not to a
// Run each: every fan-out strands goroutine descriptors on the other Ps
// (DESIGN.md §4, "Parallel sweeps").
func RunGrid(specs []Spec, factories map[string]PricerFactory) ([]map[string][]Result, error) {
	if len(factories) == 0 {
		return nil, errors.New("sim: no pricer factories")
	}
	out := make([]map[string][]Result, len(specs))
	// Group g's specs are groups[g], its units first[g] to first[g+1]-1.
	var groups [][]int
	first := []int{0}
	index := make(map[Spec]int, len(specs))
	for i, spec := range specs {
		series := cmp.Or(spec.Series, 100)
		if series < 1 {
			return nil, errors.New("sim: Series must be >= 1")
		}
		// A config error fails every series of its spec alike, so
		// series 0's is the lowest failing pair's.
		if err := cmp.Or(spec.AR.Validate(), spec.Strategic.Validate()); err != nil {
			return nil, fmt.Errorf("sim: series 0: %w", err)
		}
		out[i] = make(map[string][]Result, len(factories))
		for name := range factories {
			out[i][name] = make([]Result, series)
		}
		key := spec
		key.Strategic.Beta, key.Strategic.Floor, key.KeepWonBids = 0, 0, false
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
			first = append(first, first[g]+series)
		}
		groups[g] = append(groups[g], i)
	}
	units := first[len(groups)]
	var next atomic.Int64
	work := func() {
		var w worker
		for {
			u := int(next.Add(1)) - 1
			if u >= units {
				return
			}
			g := sort.SearchInts(first, u+1) - 1
			w.run(specs, groups[g], u-first[g], factories, out)
		}
	}
	var wg sync.WaitGroup
	for n := min(runtime.GOMAXPROCS(0), units); n > 1; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out, nil
}

// worker is one goroutine's storage, kept across the units it claims.
type worker struct {
	vals      []float64
	stream    []timeseries.Bid
	hindsight []float64
	flags     []bool            // AppendTransform's scratch, then replay's winners
	pricers   map[string]Pricer // each factory's last, its prev
}

// run draws series s for the specs of group — the first one's draws are
// every one's — and writes each factory's replay of each spec's stream
// to out[spec][name][s].
func (w *worker) run(specs []Spec, group []int, s int, factories map[string]PricerFactory, out []map[string][]Result) {
	if w.pricers == nil {
		w.pricers = make(map[string]Pricer, len(factories))
	}
	spec := specs[group[0]]
	seed := spec.BaseSeed + uint64(s)*2654435761
	genR := rng.New(seed)
	// RunGrid validated every spec: neither call can fail.
	w.vals, _ = timeseries.AppendValuations(w.vals[:0], spec.AR, genR)
	w.flags = cleared(w.flags, len(w.vals))
	// rng.New(genR.Uint64()) is genR.Split() with the split on the stack.
	w.stream, _ = timeseries.AppendTransform(w.stream[:0], w.flags, w.vals, spec.Strategic, rng.New(genR.Uint64()))
	stream := w.stream
	if spec.Window > 0 && len(stream) > spec.Window {
		// A window is a stationary snapshot of an ongoing market:
		// the buyers observed mid-window are at arbitrary phases of
		// their bidding plans (some started before the window, some
		// finish after it). Shuffle fully before truncating so the
		// window composition matches the steady-state bid mix rather
		// than the transient where every buyer has just arrived.
		rng.Shuffle(rng.New(seed^0x9e3779b97f4a7c15), stream)
		stream = stream[:spec.Window]
	}
	for _, i := range group {
		spec := specs[i]
		for j := range stream {
			if b := &stream[j]; b.Strategic && !b.Final {
				b.Amount = spec.Strategic.LowBid(b.Valuation)
			}
		}
		w.hindsight = timeseries.AppendAmounts(w.hindsight[:0], stream)
		for name, mk := range factories {
			p := mk(w.pricers[name], seed, w.hindsight)
			w.pricers[name] = p
			out[i][name][s], w.flags = replay(p, stream, !spec.KeepWonBids, w.flags)
		}
	}
}

// cleared returns buf's storage, grown when too small, as n cleared flags.
func cleared(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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
