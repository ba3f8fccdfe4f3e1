package stats

import (
	"errors"
	"math"
	"testing"

	"github.com/datamarket/shield/internal/rng"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.841344746},
		{-2.326347874, 0.01},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEqual(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 0/1 not infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("quantile outside [0,1] not NaN")
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// P(X > 5.991) = 0.05 for k=2; P(X > 9.210) = 0.01 for k=2.
	if got := ChiSquareSF(5.991464547, 2); !almostEqual(got, 0.05, 1e-6) {
		t.Errorf("ChiSquareSF(5.99, 2) = %v", got)
	}
	if got := ChiSquareSF(9.210340372, 2); !almostEqual(got, 0.01, 1e-6) {
		t.Errorf("ChiSquareSF(9.21, 2) = %v", got)
	}
	if got := ChiSquareSF(0, 2); got != 1 {
		t.Errorf("ChiSquareSF(0, 2) = %v", got)
	}
	// k=2 is exponential(1/2): P(X > x) = exp(-x/2).
	for _, x := range []float64{0.5, 1, 3, 10} {
		if got, want := ChiSquareSF(x, 2), math.Exp(-x/2); !almostEqual(got, want, 1e-9) {
			t.Errorf("ChiSquareSF(%v, 2) = %v, want %v", x, got, want)
		}
	}
}

func TestWilcoxonSignedRankAgainstReference(t *testing.T) {
	// Hand-checked example. Diffs after dropping the zero pair:
	// 15,-7,5,20,-9,17,-12,5,-10 (n=9); W+ = 27, W- = 18;
	// mean = 22.5, var = 71.125 (one tie pair), sd = 8.43365;
	// z = (27-22.5-0.5)/sd = 0.47429, two-sided p = 0.63529 with the
	// continuity correction (scipy without correction reports 0.5936).
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	res, err := WilcoxonSignedRank(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 9 {
		t.Errorf("N = %d, want 9", res.N)
	}
	if res.Statistic != 27 {
		t.Errorf("W+ = %v, want 27", res.Statistic)
	}
	if !almostEqual(res.P, 0.63529, 1e-4) {
		t.Errorf("p = %v, want ~0.63529", res.P)
	}
	if !almostEqual(res.Z, 0.47429, 1e-4) {
		t.Errorf("z = %v, want ~0.47429", res.Z)
	}
}

func TestWilcoxonDetectsShift(t *testing.T) {
	r := rng.New(101)
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Normal(0, 1)
		y[i] = x[i] + 1.0 + r.Normal(0, 0.2) // strong positive shift of y
	}
	res, err := WilcoxonSignedRank(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-4 {
		t.Errorf("clear shift not detected: p = %v", res.P)
	}
	// One-sided: x < y should be significant, x > y should not.
	lt, _ := WilcoxonSignedRank(x, y, Less)
	gt, _ := WilcoxonSignedRank(x, y, Greater)
	if lt.P > 1e-4 {
		t.Errorf("Less p = %v, want tiny", lt.P)
	}
	if gt.P < 0.99 {
		t.Errorf("Greater p = %v, want ~1", gt.P)
	}
}

func TestWilcoxonNoShiftLargeP(t *testing.T) {
	r := rng.New(303)
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Normal(10, 2)
		y[i] = x[i] + r.Normal(0, 1) // symmetric differences
	}
	res, err := WilcoxonSignedRank(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("no-shift data rejected: p = %v", res.P)
	}
}

func TestWilcoxonOneSample(t *testing.T) {
	r := rng.New(55)
	n := 50
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(100, 10)
	}
	// True median: p should be large.
	res, err := WilcoxonOneSample(xs, 100, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Errorf("true-median test rejected: p = %v", res.P)
	}
	// Far-off median: p should be tiny.
	res, err = WilcoxonOneSample(xs, 120, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("off-median test not rejected: p = %v", res.P)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1}, TwoSided); err == nil {
		t.Error("length mismatch not reported")
	}
	same := []float64{1, 2, 3, 4, 5, 6}
	if _, err := WilcoxonSignedRank(same, same, TwoSided); !errors.Is(err, ErrAllZero) {
		t.Errorf("all-zero differences: err = %v", err)
	}
	if _, err := WilcoxonOneSample([]float64{1, 2, 3}, 0, TwoSided); !errors.Is(err, ErrTooFew) {
		t.Errorf("tiny sample: err = %v", err)
	}
}

func TestWilcoxonHandlesTies(t *testing.T) {
	// Many tied absolute differences must not produce NaN or panic.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 3, 4, 5, 4, 5, 6, 7} // diffs: -1 x4, +1 x4
	res, err := WilcoxonSignedRank(x, y, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.P) || res.P < 0.5 {
		t.Errorf("balanced tied diffs: p = %v, want large", res.P)
	}
}

func TestDAgostinoPearsonNormalVsUniform(t *testing.T) {
	r := rng.New(909)
	n := 500
	normal := make([]float64, n)
	uniform := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = r.Normal(0, 1)
		uniform[i] = r.Float64()
	}
	resN, err := DAgostinoPearson(normal)
	if err != nil {
		t.Fatal(err)
	}
	if resN.P < 0.01 {
		t.Errorf("normal sample rejected by K²: p = %v", resN.P)
	}
	resU, err := DAgostinoPearson(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if resU.P > 0.01 {
		t.Errorf("uniform sample not rejected by K²: p = %v", resU.P)
	}
}

func TestDAgostinoPearsonSmallSample(t *testing.T) {
	if _, err := DAgostinoPearson(make([]float64, 10)); !errors.Is(err, ErrTooFew) {
		t.Errorf("err = %v, want ErrTooFew", err)
	}
}

func TestShapiroFranciaNormalVsBimodal(t *testing.T) {
	r := rng.New(111)
	n := 50
	normal := make([]float64, n)
	bimodal := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = r.Normal(0, 1)
		if i%2 == 0 {
			bimodal[i] = r.Normal(-4, 0.3)
		} else {
			bimodal[i] = r.Normal(4, 0.3)
		}
	}
	resN, err := ShapiroFrancia(normal)
	if err != nil {
		t.Fatal(err)
	}
	if resN.P < 0.01 {
		t.Errorf("normal sample rejected by Shapiro-Francia: p = %v", resN.P)
	}
	if resN.Statistic < 0.9 || resN.Statistic > 1 {
		t.Errorf("W' = %v for normal data", resN.Statistic)
	}
	resB, err := ShapiroFrancia(bimodal)
	if err != nil {
		t.Fatal(err)
	}
	if resB.P > 0.01 {
		t.Errorf("bimodal sample not rejected: p = %v", resB.P)
	}
}

func TestShapiroFranciaDegenerate(t *testing.T) {
	if _, err := ShapiroFrancia([]float64{5, 5, 5, 5, 5, 5}); !errors.Is(err, ErrAllZero) {
		t.Errorf("constant sample: err = %v", err)
	}
	if _, err := ShapiroFrancia([]float64{1, 2}); !errors.Is(err, ErrTooFew) {
		t.Errorf("tiny sample: err = %v", err)
	}
}

func TestHistogramBinning(t *testing.T) {
	xs := []float64{0, 0.5, 1, 4.9, 5, 9.99, 10, -3, 42}
	h := NewHistogram(xs, 0, 10, 10)
	if h.Total != len(xs) {
		t.Errorf("Total = %d", h.Total)
	}
	// -3 clamps to bin 0; 10 and 42 clamp into last bin.
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[4] != 1 || h.Counts[5] != 1 || h.Counts[9] != 3 {
		t.Errorf("counts = %v", h.Counts)
	}
	if got := h.BinCenter(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %v", got)
	}
}

func TestHistogramMode(t *testing.T) {
	xs := []float64{1, 1.1, 1.2, 5, 9}
	h := NewHistogram(xs, 0, 10, 10)
	if m := h.Mode(); !almostEqual(m, 1.5, 1e-12) {
		t.Errorf("Mode = %v, want 1.5", m)
	}
	empty := NewHistogram(nil, 0, 1, 4)
	if !math.IsNaN(empty.Mode()) {
		t.Error("empty histogram Mode not NaN")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAlternativeString(t *testing.T) {
	if TwoSided.String() != "two-sided" || Less.String() != "less" || Greater.String() != "greater" {
		t.Error("Alternative String broken")
	}
	if Alternative(99).String() != "unknown" {
		t.Error("unknown Alternative String broken")
	}
}
