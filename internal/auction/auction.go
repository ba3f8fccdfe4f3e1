// Package auction implements digital-goods auction primitives from the
// paper's Section 2.3: the offline optimal posting price (Equation 2), the
// posting-price revenue function, candidate price grids, and the simple
// baseline update algorithms (average, median) the evaluation compares
// the multiplicative-weights engine against (Figure 5a). Figure 4a's
// Random baseline is the engine's own core.DrawRandom rule.
//
// Data is nonrival: a posting price p allocates to every bid >= p and each
// winner pays exactly p, so revenue at price p is p times the number of
// winning bids.
package auction

import (
	"math"
	"slices"
)

// Revenue returns the revenue a posting price p extracts from bids: p for
// every bid >= p (winners pay the posting price, Section 2.3). A
// non-positive price yields zero revenue: the paper's market never raises
// money from free allocation.
func Revenue(bids []float64, p float64) float64 {
	if p <= 0 {
		return 0
	}
	var winners int
	for _, b := range bids {
		if b >= p {
			winners++
		}
	}
	return p * float64(winners)
}

// OptimalPrice implements Equation 2: it returns the posting price b_k that
// maximizes k*b_k over the k-th largest bids, together with the optimal
// revenue M(b̄). Ties in revenue break toward the larger b_k, as the paper
// specifies. Empty input or all-non-positive bids yield (0, 0).
func OptimalPrice(bids []float64) (price, revenue float64) {
	var c Curve
	c.Sort(bids)
	return c.Optimal()
}

// Curve is the revenue curve of one epoch of bids: the epoch sorted once
// into storage the curve keeps and reuses, from which Equation 2's optimum
// and the revenue of any number of posting prices are read without
// sorting again, rescanning the raw epoch, or allocating. It is what the
// pricing engine scores every candidate against at an epoch close and in
// the first round of a wait-period replay. The zero value is ready.
type Curve struct {
	asc []float64 // the epoch, ascending
}

// Sort loads an epoch: bids are copied (the argument is left untouched)
// into the curve's buffer, which grows to the largest epoch seen and is
// reused from then on, and sorted.
func (c *Curve) Sort(bids []float64) {
	c.asc = append(c.asc[:0], bids...)
	slices.Sort(c.asc)
}

// Fill loads an epoch of n copies of v, which needs no sorting.
func (c *Curve) Fill(v float64, n int) {
	c.asc = c.asc[:0]
	for range n {
		c.asc = append(c.asc, v)
	}
}

// Optimal returns OptimalPrice of the loaded epoch.
func (c *Curve) Optimal() (price, revenue float64) {
	n := len(c.asc)
	for i := n - 1; i >= 0; i-- {
		b := c.asc[i]
		if b <= 0 {
			break // scanning downward: no further bid can contribute
		}
		r := float64(n-i) * b
		// Strict > also implements the tie-break: equal revenue at a
		// larger b_k is seen first in the downward scan.
		if r > revenue {
			revenue = r
			price = b
		}
	}
	return price, revenue
}

// Reuse hands the curve buf's storage for its sorted epoch, so an owner
// can carve it from a larger block. Cap buf's capacity: an epoch that
// outgrows it moves to storage of its own.
func (c *Curve) Reuse(buf []float64) { c.asc = buf[:0] }

// Ascending returns the loaded epoch, sorted ascending (NaNs first), for
// a caller that reads many prices' winners in one walk. It is the
// curve's storage: read-only, and valid until the next load.
func (c *Curve) Ascending() []float64 { return c.asc }

// Revenue returns Revenue(bids, p) for the loaded epoch: the winners are
// the sorted epoch's upper tail, found by binary search.
func (c *Curve) Revenue(p float64) float64 {
	if p <= 0 {
		return 0
	}
	lo, hi := 0, len(c.asc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.asc[mid] >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return p * float64(len(c.asc)-lo)
}

// LinearGrid returns n evenly spaced candidate prices spanning [lo, hi]
// inclusive. It panics if n < 2 or hi <= lo. Posting-price candidates for
// the MW engine are typically built with this.
func LinearGrid(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("auction: LinearGrid needs n >= 2")
	}
	if hi <= lo {
		panic("auction: LinearGrid needs hi > lo")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulation error on the top candidate
	return out
}

// GeometricGrid returns n geometrically spaced candidates spanning
// [lo, hi] inclusive, for markets whose valuations span orders of
// magnitude. It panics if n < 2, lo <= 0 or hi <= lo.
func GeometricGrid(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("auction: GeometricGrid needs n >= 2")
	}
	if lo <= 0 || hi <= lo {
		panic("auction: GeometricGrid needs 0 < lo < hi")
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	out[n-1] = hi
	return out
}

// StreamPricer is an online posting-price algorithm: the arbiter reads the
// current posting price before each allocation decision and feeds every
// incoming bid to ObserveBid afterwards (prices must be chosen before bids
// arrive, Section 2.3).
type StreamPricer interface {
	// PostingPrice returns the price in force for the next bid.
	PostingPrice() float64
	// ObserveBid records an incoming bid, possibly updating the price.
	ObserveBid(b float64)
}

// SummaryFunc reduces an epoch of bids to a posting price.
type SummaryFunc func(bids []float64) float64

// EpochPricer updates its posting price once per epoch of E bids by
// applying a summary function to the epoch's bids. With Avg or Median
// summaries it is the strawman update algorithm of Section 3.2/7.3.1.
type EpochPricer struct {
	epochSize int
	summarize SummaryFunc

	price float64
	epoch []float64
}

// NewEpochPricer returns an EpochPricer with the given epoch size E >= 1,
// summary function, and initial posting price (in force until the first
// epoch completes).
func NewEpochPricer(epochSize int, summarize SummaryFunc, initial float64) *EpochPricer {
	if epochSize < 1 {
		panic("auction: epoch size must be >= 1")
	}
	if summarize == nil {
		panic("auction: nil summary function")
	}
	return &EpochPricer{
		epochSize: epochSize,
		summarize: summarize,
		price:     initial,
		epoch:     make([]float64, 0, epochSize),
	}
}

// PostingPrice implements StreamPricer.
func (e *EpochPricer) PostingPrice() float64 { return e.price }

// ObserveBid implements StreamPricer.
func (e *EpochPricer) ObserveBid(b float64) {
	e.epoch = append(e.epoch, b)
	if len(e.epoch) < e.epochSize {
		return
	}
	e.price = e.summarize(e.epoch)
	e.epoch = e.epoch[:0]
}

// AvgSummary prices the next epoch at the mean of the current epoch's bids
// (the "avg" baseline of Section 7.3.1).
func AvgSummary(bids []float64) float64 {
	if len(bids) == 0 {
		return 0
	}
	var s float64
	for _, b := range bids {
		s += b
	}
	return s / float64(len(bids))
}

// MedianSummary prices the next epoch at the median bid (the "p50"
// baseline of Section 7.3.1). It sorts bids in place: an EpochPricer
// discards the epoch once it is summarized.
func MedianSummary(bids []float64) float64 {
	n := len(bids)
	if n == 0 {
		return 0
	}
	slices.Sort(bids)
	if n%2 == 1 {
		return bids[n/2]
	}
	return (bids[n/2-1] + bids[n/2]) / 2
}

// FixedPricer posts a constant price forever; OfflineOptimalPricer built
// from a full bid trace is the paper's "Opt" baseline.
type FixedPricer struct{ P float64 }

// PostingPrice implements StreamPricer.
func (f FixedPricer) PostingPrice() float64 { return f.P }

// ObserveBid implements StreamPricer.
func (FixedPricer) ObserveBid(float64) {}

// OfflineOptimalPricer returns the Opt baseline: the fixed posting price
// that is revenue-optimal in hindsight for the whole bid trace
// (Equation 2 applied to all bids at once).
func OfflineOptimalPricer(allBids []float64) FixedPricer {
	p, _ := OptimalPrice(allBids)
	return FixedPricer{P: p}
}
