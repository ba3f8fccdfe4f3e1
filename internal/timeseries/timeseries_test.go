package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/stats"
)

func testAR() ARConfig {
	return ARConfig{AR: 0.1, Sigma: 0.01, Mean: 100, Floor: 1, N: 250}
}

func TestARConfigValidate(t *testing.T) {
	if err := testAR().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*ARConfig){
		func(c *ARConfig) { c.AR = -0.1 },
		func(c *ARConfig) { c.AR = 1 },
		func(c *ARConfig) { c.Sigma = 0 },
		func(c *ARConfig) { c.Mean = 0 },
		func(c *ARConfig) { c.Scale = -1 },
		func(c *ARConfig) { c.Floor = -1 },
		func(c *ARConfig) { c.Floor = 100 },
		func(c *ARConfig) { c.N = 0 },
		func(c *ARConfig) { c.BurnIn = -1 },
	}
	for i, mutate := range bad {
		cfg := testAR()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateValuationsBasics(t *testing.T) {
	vals, err := GenerateValuations(testAR(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 250 {
		t.Fatalf("len = %d", len(vals))
	}
	for i, v := range vals {
		if v < 1 {
			t.Fatalf("vals[%d] = %v below floor", i, v)
		}
	}
	// Long-run level near Mean: the latent process is mean-zero.
	m := stats.Mean(vals)
	if m < 60 || m > 140 {
		t.Fatalf("mean valuation %v far from 100", m)
	}
	// The series must actually vary.
	if stats.StdDev(vals) < 0.5 {
		t.Fatalf("series nearly constant: std %v", stats.StdDev(vals))
	}
}

func TestGenerateValuationsDeterministic(t *testing.T) {
	a, _ := GenerateValuations(testAR(), rng.New(5))
	b, _ := GenerateValuations(testAR(), rng.New(5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed series diverged at %d", i)
		}
	}
	c, _ := GenerateValuations(testAR(), rng.New(6))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produced %d/%d identical points", same, len(a))
	}
}

func TestGenerateValuationsRejectsBadConfig(t *testing.T) {
	if _, err := GenerateValuations(ARConfig{}, rng.New(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestHigherARMeansMorePersistence(t *testing.T) {
	// Lag-1 autocorrelation of the valuation series should grow with AR.
	acf := func(ar float64) float64 {
		cfg := testAR()
		cfg.AR = ar
		cfg.N = 5000
		vals, err := GenerateValuations(cfg, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		m := stats.Mean(vals)
		var num, den float64
		for i := 1; i < len(vals); i++ {
			num += (vals[i] - m) * (vals[i-1] - m)
		}
		for _, v := range vals {
			den += (v - m) * (v - m)
		}
		return num / den
	}
	low := acf(0.1)
	high := acf(0.9)
	if high <= low+0.3 {
		t.Fatalf("acf(0.9)=%v not clearly above acf(0.1)=%v", high, low)
	}
	if math.Abs(low-0.1) > 0.1 {
		t.Errorf("acf at AR=0.1 is %v, want ~0.1", low)
	}
}

func TestStrategicConfigValidate(t *testing.T) {
	good := StrategicConfig{PCT: 0.5, Beta: 0.25, Horizon: 4, Floor: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []StrategicConfig{
		{PCT: -0.1, Horizon: 1},
		{PCT: 1.1, Horizon: 1},
		{Beta: -0.1, Horizon: 1},
		{Beta: 1.1, Horizon: 1},
		{Horizon: 0},
		{Horizon: 1, Floor: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTruthfulStream(t *testing.T) {
	vals := []float64{10, 20, 30}
	s := TruthfulStream(vals)
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	for i, b := range s {
		if b.Buyer != i || b.Amount != vals[i] || b.Valuation != vals[i] || !b.Final || b.Strategic {
			t.Fatalf("bid %d = %+v", i, b)
		}
	}
}

func TestTransformPCTZeroIsTruthful(t *testing.T) {
	vals := []float64{10, 20, 30}
	s, err := Transform(vals, StrategicConfig{PCT: 0, Beta: 0.5, Horizon: 4, Floor: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	truth := TruthfulStream(vals)
	if len(s) != len(truth) {
		t.Fatalf("len = %d", len(s))
	}
	for i := range s {
		if s[i] != truth[i] {
			t.Fatalf("bid %d = %+v, want %+v", i, s[i], truth[i])
		}
	}
}

func TestTransformPCTOneExpandsEveryBuyer(t *testing.T) {
	vals := []float64{100, 200}
	s, err := Transform(vals, StrategicConfig{PCT: 1, Beta: 0.25, Horizon: 3, Floor: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 6 { // 2 buyers x 3 opportunities
		t.Fatalf("len = %d, want 6", len(s))
	}
	// Per-buyer order is preserved under interleaving: each buyer's bids
	// appear as low, low, truthful(final).
	wantPerBuyer := map[int][]Bid{
		0: {
			{Buyer: 0, Valuation: 100, Amount: 25, Strategic: true},
			{Buyer: 0, Valuation: 100, Amount: 25, Strategic: true},
			{Buyer: 0, Valuation: 100, Amount: 100, Strategic: true, Final: true},
		},
		1: {
			{Buyer: 1, Valuation: 200, Amount: 50, Strategic: true},
			{Buyer: 1, Valuation: 200, Amount: 50, Strategic: true},
			{Buyer: 1, Valuation: 200, Amount: 200, Strategic: true, Final: true},
		},
	}
	got := map[int][]Bid{}
	for _, b := range s {
		got[b.Buyer] = append(got[b.Buyer], b)
	}
	for buyer, want := range wantPerBuyer {
		if len(got[buyer]) != len(want) {
			t.Fatalf("buyer %d has %d bids", buyer, len(got[buyer]))
		}
		for i := range want {
			if got[buyer][i] != want[i] {
				t.Fatalf("buyer %d bid %d = %+v, want %+v", buyer, i, got[buyer][i], want[i])
			}
		}
	}
}

func TestTransformInterleavesBuyers(t *testing.T) {
	// With many multi-bid buyers, the stream must not be a sequence of
	// per-buyer bursts: some buyer's bids must be separated by another
	// buyer's bid.
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 100
	}
	s, err := Transform(vals, StrategicConfig{PCT: 1, Beta: 0.5, Horizon: 4, Floor: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for i := 1; i < len(s); i++ {
		if s[i].Buyer != s[i-1].Buyer {
			switches++
		}
	}
	// A pure burst layout has exactly 49 switches; a random interleaving
	// of 200 bids has far more.
	if switches < 100 {
		t.Fatalf("only %d buyer switches in %d bids: stream looks bursty", switches, len(s))
	}
}

func TestTransformBetaZeroBidsFloor(t *testing.T) {
	vals := []float64{100}
	s, err := Transform(vals, StrategicConfig{PCT: 1, Beta: 0, Horizon: 2, Floor: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Amount != 3 {
		t.Fatalf("min-bid amount = %v, want floor 3", s[0].Amount)
	}
	if s[1].Amount != 100 || !s[1].Final {
		t.Fatalf("final bid = %+v", s[1])
	}
}

func TestTransformHorizonOneIsTruthfulButMarked(t *testing.T) {
	s, err := Transform([]float64{50}, StrategicConfig{PCT: 1, Beta: 0.1, Horizon: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 || s[0].Amount != 50 || !s[0].Strategic || !s[0].Final {
		t.Fatalf("H=1 stream = %+v", s)
	}
}

func TestTransformPCTFraction(t *testing.T) {
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 100
	}
	s, err := Transform(vals, StrategicConfig{PCT: 0.3, Beta: 0.5, Horizon: 2, Floor: 1}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	strategicBuyers := map[int]bool{}
	for _, b := range s {
		if b.Strategic {
			strategicBuyers[b.Buyer] = true
		}
	}
	frac := float64(len(strategicBuyers)) / float64(len(vals))
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("strategic fraction = %v, want ~0.3", frac)
	}
}

func TestTransformInvariants(t *testing.T) {
	// Property: strategic bids never exceed the valuation; every buyer's
	// last bid is truthful; stream length is consistent with horizons.
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rr.Uniform(1, 1000)
		}
		cfg := StrategicConfig{
			PCT:     rr.Float64(),
			Beta:    rr.Float64(),
			Horizon: 1 + rr.Intn(8),
			Floor:   rr.Uniform(0, 1),
		}
		s, err := Transform(vals, cfg, rr)
		if err != nil {
			return false
		}
		lastOf := map[int]Bid{}
		for _, b := range s {
			if b.Amount > b.Valuation && b.Amount > cfg.Floor {
				return false
			}
			lastOf[b.Buyer] = b
		}
		for _, b := range lastOf {
			if !b.Final || b.Amount != b.Valuation {
				return false
			}
		}
		return len(lastOf) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAmounts(t *testing.T) {
	s := []Bid{{Amount: 1}, {Amount: 2.5}}
	a := Amounts(s)
	if len(a) != 2 || a[0] != 1 || a[1] != 2.5 {
		t.Fatalf("Amounts = %v", a)
	}
}

func TestPaperARGrid(t *testing.T) {
	g := PaperARGrid()
	if len(g) != 4 || g[0][0] != 0.1 || g[3][0] != 0.999 {
		t.Fatalf("grid = %v", g)
	}
	for _, p := range g {
		if p[1] != 0.01 {
			t.Fatalf("sigma = %v", p[1])
		}
		cfg := testAR()
		cfg.AR, cfg.Sigma = p[0], p[1]
		if err := cfg.Validate(); err != nil {
			t.Fatalf("paper grid point %v invalid: %v", p, err)
		}
	}
}

// referenceTransform is the pre-rewrite Transform body (one slice per
// buyer, riffled afterwards), kept as the oracle for the version that
// derives each bid from (strategic, k, valuation) without materializing
// the per-buyer sequences.
func referenceTransform(valuations []float64, cfg StrategicConfig, r *rng.RNG) []Bid {
	seqs := make([][]Bid, len(valuations))
	total := 0
	for i, v := range valuations {
		if !r.Bool(cfg.PCT) {
			seqs[i] = []Bid{{Buyer: i, Valuation: v, Amount: v, Final: true}}
			total++
			continue
		}
		low := cfg.Beta * v
		if low < cfg.Floor {
			low = cfg.Floor
		}
		seq := make([]Bid, 0, cfg.Horizon)
		for k := 0; k < cfg.Horizon-1; k++ {
			seq = append(seq, Bid{Buyer: i, Valuation: v, Amount: low, Strategic: true})
		}
		seq = append(seq, Bid{Buyer: i, Valuation: v, Amount: v, Strategic: true, Final: true})
		seqs[i] = seq
		total += len(seq)
	}
	order := make([]int, 0, total)
	for bi, s := range seqs {
		for range s {
			order = append(order, bi)
		}
	}
	if !cfg.Burst {
		r.ShuffleInts(order)
	}
	out := make([]Bid, 0, total)
	next := make([]int, len(seqs))
	for _, bi := range order {
		out = append(out, seqs[bi][next[bi]])
		next[bi]++
	}
	return out
}

// TestTransformMatchesReference holds Transform to the reference bid
// for bid — and draw for draw: the generators must leave both in the
// same state.
func TestTransformMatchesReference(t *testing.T) {
	vals, err := GenerateValuations(ARConfig{AR: 0.9, Sigma: 0.01, Mean: 100, Floor: 1, N: 250}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range []float64{0.1, 0.5, 1} {
		for _, beta := range []float64{0, 0.6} {
			for _, horizon := range []int{1, 2, 5} {
				for _, burst := range []bool{false, true} {
					cfg := StrategicConfig{PCT: pct, Beta: beta, Horizon: horizon, Floor: 3, Burst: burst}
					r1, r2 := rng.New(77), rng.New(77)
					got, err := Transform(vals, cfg, r1)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceTransform(vals, cfg, r2)
					if len(got) != len(want) {
						t.Fatalf("%+v: %d bids, reference %d", cfg, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%+v: bid %d = %+v, reference %+v", cfg, i, got[i], want[i])
						}
					}
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%+v: generator state diverged from the reference", cfg)
					}
				}
			}
		}
	}
}

// TestTransformAllocations pins the allocation count: four slices per
// call (who is strategic, the riffle order, the cursor per buyer, the
// output), not one per buyer.
func TestTransformAllocations(t *testing.T) {
	vals := make([]float64, 250)
	for i := range vals {
		vals[i] = 50 + float64(i%40)
	}
	r := rng.New(1)
	cfg := StrategicConfig{PCT: 0.5, Beta: 0.5, Horizon: 4}
	n := testing.AllocsPerRun(50, func() {
		if _, err := Transform(vals, cfg, r); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Fatalf("Transform allocates %.0f times for 250 buyers, want <= 4", n)
	}
}
