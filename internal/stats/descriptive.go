// Package stats implements the statistical machinery the paper's evaluation
// relies on: descriptive statistics and percentiles for the simulation box
// plots, and the hypothesis tests used in the user study (Wilcoxon
// signed-rank for paired and one-sample comparisons, D'Agostino-Pearson K²
// and Shapiro-Francia for normality).
//
// Everything is implemented from scratch on the standard library; p-values
// for the rank tests use the standard normal approximation with tie and
// zero corrections, which is the same regime SciPy operates in at the
// paper's sample sizes (n = 50).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN when fewer
// than two observations are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks, matching numpy.percentile's default.
// It returns NaN for empty input and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return xs[0]
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentilesSorted sorts xs once and evaluates each requested percentile,
// returning them in the same order. It modifies xs.
func PercentilesSorted(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(xs)
	for i, p := range ps {
		out[i] = percentileSorted(xs, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the five-number box-plot summary the paper's simulation
// figures report (1st, 25th, 50th, 75th and 99th percentiles) together with
// the mean and sample size.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	P1     float64
	P25    float64
	Median float64
	P75    float64
	P99    float64
}

// Summarize computes a Summary of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Std: StdDev(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.P1, s.P25, s.Median, s.P75, s.P99 = nan, nan, nan, nan, nan
		return s
	}
	buf := make([]float64, len(xs))
	copy(buf, xs)
	ps := PercentilesSorted(buf, 1, 25, 50, 75, 99)
	s.P1, s.P25, s.Median, s.P75, s.P99 = ps[0], ps[1], ps[2], ps[3], ps[4]
	return s
}

// centralMoments returns the second, third and fourth central moments
// of xs (the mean of the squared, cubed and fourth-power deviations
// from the mean), the sums behind every skewness and kurtosis here.
func centralMoments(xs []float64) (m2, m3, m4 float64) {
	n := float64(len(xs))
	m := Mean(xs)
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	return m2 / n, m3 / n, m4 / n
}

// NormalizeBy divides each element by denom, returning a new slice. A
// non-positive denom yields a copy of xs.
func NormalizeBy(xs []float64, denom float64) []float64 {
	out := make([]float64, len(xs))
	if !(denom > 0) {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / denom
	}
	return out
}
