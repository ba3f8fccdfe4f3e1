package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1: sum of squared devs = 32, / 7.
	if v := Variance(xs); !almostEqual(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
	if s := StdDev(xs); !almostEqual(s, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton not NaN")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) not NaN")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max(nil) not NaN")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 9 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{1, 9}); m != 5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	s := Summarize(xs)
	if s.N != 101 || s.Median != 50 || s.P25 != 25 || s.P75 != 75 || s.P1 != 1 || s.P99 != 99 {
		t.Errorf("Summary = %+v", s)
	}
	if !almostEqual(s.Mean, 50, 1e-9) {
		t.Errorf("Summary mean = %v", s.Mean)
	}
}

func TestPercentileBounds(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-100, 100)
		}
		p := r.Uniform(0, 100)
		v := Percentile(xs, p)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneInP(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = r.Uniform(0, 1000)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev-1e-9 {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestSkewnessSymmetricNearZero(t *testing.T) {
	// D'Agostino's skewness and kurtosis statistics are approximately
	// standard normal on a normal sample.
	r := rng.New(5)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
	}
	if z, ok := skewnessZ(xs); !ok || math.Abs(z) > 3 {
		t.Errorf("normal skewness z = %v (ok %v), want ~N(0,1)", z, ok)
	}
	if z, ok := kurtosisZ(xs); !ok || math.Abs(z) > 3 {
		t.Errorf("normal kurtosis z = %v (ok %v), want ~N(0,1)", z, ok)
	}
}

func TestSkewnessSign(t *testing.T) {
	rightSkewed := []float64{1, 1, 1, 2, 2, 3, 10, 20}
	if z, _ := skewnessZ(rightSkewed); !(z > 0) {
		t.Errorf("right-skewed data has skewness z %v", z)
	}
	leftSkewed := []float64{-20, -10, -3, -2, -2, -1, -1, -1}
	if z, _ := skewnessZ(leftSkewed); !(z < 0) {
		t.Errorf("left-skewed data has skewness z %v", z)
	}
}

func TestNormalizeBy(t *testing.T) {
	out := NormalizeBy([]float64{3, 6}, 6)
	if !almostEqual(out[0], 0.5, 1e-12) || !almostEqual(out[1], 1, 1e-12) {
		t.Errorf("NormalizeBy = %v", out)
	}
	out = NormalizeBy([]float64{3, 6}, 0)
	if out[0] != 3 || out[1] != 6 {
		t.Errorf("NormalizeBy zero denom = %v", out)
	}
}

func TestPercentilesSorted(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	ps := PercentilesSorted(xs, 0, 50, 100)
	if ps[0] != 1 || ps[1] != 2.5 || ps[2] != 4 {
		t.Errorf("PercentilesSorted = %v", ps)
	}
	// Input is sorted afterwards by contract.
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Errorf("input not sorted: %v", xs)
		}
	}
}
