package stats

import (
	"math"
	"sort"
)

// DAgostinoPearson performs the D'Agostino-Pearson K² omnibus normality
// test, combining standardized skewness and kurtosis into a chi-squared
// statistic with two degrees of freedom. The paper uses it (with Shapiro's
// test) to reject normality of the user-study bids before choosing
// nonparametric tests. Requires n >= 20 for the kurtosis approximation.
func DAgostinoPearson(xs []float64) (TestResult, error) {
	n := len(xs)
	if n < 20 {
		return TestResult{}, ErrTooFew
	}
	zs, okS := skewnessZ(xs)
	zk, okK := kurtosisZ(xs)
	if !okS || !okK {
		return TestResult{}, ErrAllZero
	}
	k2 := zs*zs + zk*zk
	return TestResult{Statistic: k2, P: ChiSquareSF(k2, 2), N: n}, nil
}

// skewnessZ is D'Agostino's skewness test transformation to an
// approximately standard normal statistic.
func skewnessZ(xs []float64) (float64, bool) {
	n := float64(len(xs))
	m2, m3, _ := centralMoments(xs)
	if m2 == 0 {
		return 0, false
	}
	g1 := m3 / math.Pow(m2, 1.5)
	y := g1 * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	alpha := math.Sqrt(2 / (w2 - 1))
	if y == 0 {
		return 0, true
	}
	return delta * math.Log(y/alpha+math.Sqrt((y/alpha)*(y/alpha)+1)), true
}

// kurtosisZ is the Anscombe-Glynn kurtosis test transformation.
func kurtosisZ(xs []float64) (float64, bool) {
	n := float64(len(xs))
	m2, _, m4 := centralMoments(xs)
	if m2 == 0 {
		return 0, false
	}
	b2 := m4 / (m2 * m2)
	eb2 := 3 * (n - 1) / (n + 1)
	vb2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	x := (b2 - eb2) / math.Sqrt(vb2)
	sqrtBeta1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/sqrtBeta1*(2/sqrtBeta1+math.Sqrt(1+4/(sqrtBeta1*sqrtBeta1)))
	term := (1 - 2/a) / (1 + x*math.Sqrt(2/(a-4)))
	if term <= 0 {
		// Extreme kurtosis; the cube root of a non-positive value would be
		// complex, so clamp to a large z in the appropriate direction.
		return math.Copysign(12, x), true
	}
	z := (1 - 2/(9*a) - math.Cbrt(term)) / math.Sqrt(2/(9*a))
	return z, true
}

// ShapiroFrancia performs the Shapiro-Francia W' normality test, the
// standard large-n surrogate for Shapiro-Wilk (the two agree closely for
// n >= 30; the paper's panels have n = 50). The p-value uses the Royston
// (1993) log-normal approximation, valid for 5 <= n <= 5000.
func ShapiroFrancia(xs []float64) (TestResult, error) {
	n := len(xs)
	if n < 5 {
		return TestResult{}, ErrTooFew
	}
	if n > 5000 {
		return TestResult{}, ErrTooFew
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] == sorted[n-1] {
		return TestResult{}, ErrAllZero
	}

	// Blom scores: expected normal order statistics m_i.
	m := make([]float64, n)
	for i := 0; i < n; i++ {
		m[i] = NormalQuantile((float64(i+1) - 0.375) / (float64(n) + 0.25))
	}

	// W' = corr(x, m)^2.
	mx := Mean(sorted)
	mm := Mean(m)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := sorted[i] - mx
		dy := m[i] - mm
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	w := sxy * sxy / (sxx * syy)

	// Royston's normalizing transformation of ln(1 - W').
	nu := math.Log(float64(n))
	u1 := math.Log(nu) - nu
	u2 := math.Log(nu) + 2/nu
	mu := -1.2725 + 1.0521*u1
	sigma := 1.0308 - 0.26758*u2
	if sigma <= 0 {
		sigma = 1e-6
	}
	z := (math.Log(1-w) - mu) / sigma
	return TestResult{Statistic: w, Z: z, P: NormalSF(z), N: n}, nil
}
