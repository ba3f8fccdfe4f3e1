package auction

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/rng"
)

func TestRevenue(t *testing.T) {
	bids := []float64{10, 20, 30}
	cases := []struct{ p, want float64 }{
		{5, 15},  // all three win
		{10, 30}, // all three win (>=)
		{15, 30}, // two win
		{30, 30}, // one wins
		{31, 0},  // none win
		{0, 0},   // free allocation raises nothing
		{-5, 0},  // negative price raises nothing
	}
	for _, c := range cases {
		if got := Revenue(bids, c.p); got != c.want {
			t.Errorf("Revenue(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestOptimalPriceBasic(t *testing.T) {
	// bids 10,20,30: k*b_k over descending = 30, 40, 30 -> price 20, rev 40.
	p, r := OptimalPrice([]float64{10, 20, 30})
	if p != 20 || r != 40 {
		t.Errorf("OptimalPrice = (%v, %v), want (20, 40)", p, r)
	}
}

func TestOptimalPriceTieBreaksHigh(t *testing.T) {
	// bids 4, 2, 2: candidates 1*4=4, 2*2=4 (b=2), 3*2=6? sorted desc:
	// 4,2,2 -> k*b = 4, 4, 6 -> unique max 6 at price 2. Build a real tie:
	// bids 4, 2: 1*4=4, 2*2=4 -> tie; paper says choose larger b_k = 4.
	p, r := OptimalPrice([]float64{4, 2})
	if p != 4 || r != 4 {
		t.Errorf("tie-break: OptimalPrice = (%v, %v), want (4, 4)", p, r)
	}
}

func TestOptimalPriceEdgeCases(t *testing.T) {
	if p, r := OptimalPrice(nil); p != 0 || r != 0 {
		t.Errorf("empty: (%v, %v)", p, r)
	}
	if p, r := OptimalPrice([]float64{0, -3}); p != 0 || r != 0 {
		t.Errorf("non-positive: (%v, %v)", p, r)
	}
	if p, r := OptimalPrice([]float64{7}); p != 7 || r != 7 {
		t.Errorf("singleton: (%v, %v)", p, r)
	}
}

func TestOptimalPriceIsActuallyOptimal(t *testing.T) {
	// Property: for random bid vectors, no bid value extracts more revenue
	// than the optimum (a posting price not equal to any bid is dominated
	// by the next bid up, so checking bid values suffices).
	r := rng.New(7)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(40)
		bids := make([]float64, n)
		for i := range bids {
			bids[i] = r.Uniform(0, 100)
		}
		_, opt := OptimalPrice(bids)
		for _, b := range bids {
			if Revenue(bids, b) > opt+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClaim1PartitionSuperadditivity(t *testing.T) {
	// Claim 1 (Protection-Revenue Tradeoff): partitioning a bid vector
	// never decreases summed optimal revenue: r(b) <= r(b1) + r(b2).
	r := rng.New(11)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 2 + rr.Intn(60)
		bids := make([]float64, n)
		for i := range bids {
			bids[i] = r.Uniform(0.01, 100)
		}
		cut := 1 + rr.Intn(n-1)
		_, whole := OptimalPrice(bids)
		_, left := OptimalPrice(bids[:cut])
		_, right := OptimalPrice(bids[cut:])
		return whole <= left+right+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLinearGrid(t *testing.T) {
	g := LinearGrid(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("LinearGrid[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestGeometricGrid(t *testing.T) {
	g := GeometricGrid(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-9 {
			t.Errorf("GeometricGrid[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestGridPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"linear n<2":    func() { LinearGrid(0, 1, 1) },
		"linear hi<=lo": func() { LinearGrid(1, 1, 3) },
		"geom lo<=0":    func() { GeometricGrid(0, 1, 3) },
		"geom hi<=lo":   func() { GeometricGrid(2, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEpochPricerUpdatesOncePerEpoch(t *testing.T) {
	p := NewEpochPricer(3, AvgSummary, 100)
	if p.PostingPrice() != 100 {
		t.Fatalf("initial price = %v", p.PostingPrice())
	}
	p.ObserveBid(10)
	p.ObserveBid(20)
	if p.PostingPrice() != 100 {
		t.Fatal("price changed mid-epoch")
	}
	p.ObserveBid(30)
	if p.PostingPrice() != 20 {
		t.Fatalf("price after epoch = %v, want 20", p.PostingPrice())
	}
	// Next epoch runs on fresh bids only.
	p.ObserveBid(60)
	p.ObserveBid(60)
	p.ObserveBid(60)
	if p.PostingPrice() != 60 {
		t.Fatalf("second epoch price = %v, want 60", p.PostingPrice())
	}
}

func TestSummaries(t *testing.T) {
	bids := []float64{1, 2, 3, 10}
	if got := AvgSummary(bids); got != 4 {
		t.Errorf("AvgSummary = %v", got)
	}
	if got := MedianSummary(bids); got != 2.5 {
		t.Errorf("MedianSummary = %v", got)
	}
	if got := MedianSummary([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd MedianSummary = %v", got)
	}
	if AvgSummary(nil) != 0 || MedianSummary(nil) != 0 {
		t.Error("empty summaries not zero")
	}
}

func TestEpochPricerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad epoch":   func() { NewEpochPricer(0, AvgSummary, 1) },
		"nil summary": func() { NewEpochPricer(1, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestOfflineOptimalPricer(t *testing.T) {
	bids := []float64{10, 20, 30}
	p := OfflineOptimalPricer(bids)
	if p.PostingPrice() != 20 {
		t.Fatalf("Opt price = %v, want 20", p.PostingPrice())
	}
	p.ObserveBid(1000) // fixed pricers ignore bids
	if p.PostingPrice() != 20 {
		t.Fatal("FixedPricer moved")
	}
}

func TestOptBeatsOnlineBaselinesInHindsight(t *testing.T) {
	// Sanity: on any trace, the offline optimal single price collects at
	// least as much as any single candidate price; spot-check against the
	// avg-pricer's final price too.
	r := rng.New(99)
	bids := make([]float64, 300)
	for i := range bids {
		bids[i] = r.Uniform(1, 10)
	}
	optP, optR := OptimalPrice(bids)
	if Revenue(bids, optP) != optR {
		t.Fatalf("Revenue(optP) = %v != optR %v", Revenue(bids, optP), optR)
	}
	avg := AvgSummary(bids)
	if Revenue(bids, avg) > optR {
		t.Fatalf("avg price beat Opt: %v > %v", Revenue(bids, avg), optR)
	}
}

func BenchmarkOptimalPrice(b *testing.B) {
	r := rng.New(1)
	bids := make([]float64, 1000)
	for i := range bids {
		bids[i] = r.Uniform(0, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalPrice(bids)
	}
}

// referenceOptimalPrice is the pre-Curve OptimalPrice (a descending
// sort.Sort(sort.Reverse(...)) scanned from the front), kept as the
// oracle for the ascending-sort, scan-from-the-top implementation.
func referenceOptimalPrice(bids []float64) (price, revenue float64) {
	sorted := append([]float64(nil), bids...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for k, b := range sorted {
		if b <= 0 {
			break
		}
		if r := float64(k+1) * b; r > revenue {
			revenue, price = r, b
		}
	}
	return price, revenue
}

// TestCurveMatchesScans holds Curve (and OptimalPrice, which is built on
// it) bit-identical to the raw-epoch scans over epochs with duplicates,
// zeros, negatives, infinities and NaNs, and prices below, on, between
// and above the bids.
func TestCurveMatchesScans(t *testing.T) {
	r := rng.New(11)
	specials := []float64{0, math.Copysign(0, -1), -3, math.Inf(1), math.Inf(-1), math.NaN()}
	var c Curve
	for trial := 0; trial < 2000; trial++ {
		bids := make([]float64, r.Intn(20))
		for i := range bids {
			switch r.Intn(5) {
			case 0:
				bids[i] = specials[r.Intn(len(specials))]
			case 1:
				bids[i] = float64(r.Intn(4)) * 25 // duplicates
			default:
				bids[i] = r.Uniform(0, 200)
			}
		}
		orig := append([]float64(nil), bids...)
		c.Sort(bids)
		for i := range bids {
			if math.Float64bits(bids[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: Sort mutated its argument", trial)
			}
		}
		wantP, wantR := referenceOptimalPrice(bids)
		for name, got := range map[string][2]float64{"Curve.Optimal": pair(c.Optimal()), "OptimalPrice": pair(OptimalPrice(bids))} {
			if math.Float64bits(got[0]) != math.Float64bits(wantP) || math.Float64bits(got[1]) != math.Float64bits(wantR) {
				t.Fatalf("trial %d: %s(%v) = %v, reference (%v, %v)", trial, name, bids, got, wantP, wantR)
			}
		}
		prices := append([]float64{-1, 0, 0.5, 1e9, math.NaN(), math.Inf(1)}, bids...)
		for i := 0; i < 8; i++ {
			prices = append(prices, r.Uniform(0, 220))
		}
		for _, p := range prices {
			if got, want := c.Revenue(p), Revenue(bids, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Curve.Revenue(%v) over %v = %v, scan %v", trial, p, bids, got, want)
			}
		}
	}
}

// TestCurveFill: an epoch of n copies of one value loaded with Fill reads
// exactly like the same epoch loaded with Sort.
func TestCurveFill(t *testing.T) {
	var filled, sorted Curve
	for _, v := range []float64{37, 1, 0, -2, math.Inf(1), math.NaN()} {
		for _, n := range []int{0, 1, 8} {
			uniform := make([]float64, n)
			for i := range uniform {
				uniform[i] = v
			}
			filled.Fill(v, n)
			sorted.Sort(uniform)
			if got, want := pair(filled.Optimal()), pair(sorted.Optimal()); math.Float64bits(got[0]) != math.Float64bits(want[0]) ||
				math.Float64bits(got[1]) != math.Float64bits(want[1]) {
				t.Fatalf("Fill(%v, %d).Optimal() = %v, sorted %v", v, n, got, want)
			}
			for _, p := range []float64{-1, 0, 1, 36.5, 37, 37.5, math.Inf(1)} {
				if got, want := filled.Revenue(p), Revenue(uniform, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Fill(%v, %d).Revenue(%v) = %v, scan %v", v, n, p, got, want)
				}
			}
		}
	}
}

func pair(a, b float64) [2]float64 { return [2]float64{a, b} }

// TestCurveReusesItsBuffer pins the allocation contract the engine's
// zero-allocation epoch close rests on.
func TestCurveReusesItsBuffer(t *testing.T) {
	bids := []float64{40, 10, 30, 20, 30, 5, 90, 60}
	var c Curve
	c.Sort(bids)
	var sink float64
	n := testing.AllocsPerRun(100, func() {
		c.Sort(bids)
		_, r := c.Optimal()
		sink += r + c.Revenue(30)
	})
	if n != 0 {
		t.Fatalf("Curve allocates %.1f times per epoch, want 0", n)
	}
}
