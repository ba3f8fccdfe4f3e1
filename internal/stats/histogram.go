package stats

import "math"

// Histogram is a fixed-width binning of a sample, used to present the bid
// distributions of Figures 2a/2b.
type Histogram struct {
	// Lo is the left edge of the first bin; Width the bin width.
	Lo, Width float64
	// Counts[i] counts observations in [Lo + i*Width, Lo + (i+1)*Width),
	// with the final bin closed on the right.
	Counts []int
	// Total is the number of binned observations.
	Total int
}

// NewHistogram bins xs into bins equal-width buckets spanning [lo, hi].
// Observations outside [lo, hi] are clamped into the edge bins so that a
// histogram over a known support (e.g. the paper's bid range [0, 2v])
// never loses mass. It panics if bins <= 0 or hi <= lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with bins <= 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	h := &Histogram{Lo: lo, Width: (hi - lo) / float64(bins), Counts: make([]int, bins)}
	for _, x := range xs {
		i := int(math.Floor((x - lo) / h.Width))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// Mode returns the center of the most populated bin (the first such bin on
// ties), or NaN when the histogram is empty.
func (h *Histogram) Mode() float64 {
	if h.Total == 0 {
		return math.NaN()
	}
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}
