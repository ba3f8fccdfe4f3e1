package sim

import (
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/dp"
	"github.com/datamarket/shield/internal/timeseries"
)

func testEngineConfig() core.Config {
	// The candidate grid spans the whole bid range, floor included: a
	// strategic floor bid must be able to drag the learned price down
	// (that is the attack Epoch-Shield defends against), so the floor
	// itself has to be a candidate posting price.
	return core.Config{
		Candidates:    auction.LinearGrid(1, 200, 25),
		EpochSize:     8,
		BidsPerPeriod: 1,
		MinBid:        1,
	}
}

func testSpec() Spec {
	return Spec{
		AR:        timeseries.ARConfig{AR: 0.1, Sigma: 0.01, Mean: 100, Floor: 1, N: 250},
		Strategic: timeseries.StrategicConfig{PCT: 0, Beta: 0, Horizon: 1, Floor: 1},
		Series:    5,
		BaseSeed:  11,
	}
}

func TestReplayFixedPrice(t *testing.T) {
	p := StreamPricerAdapter{P: auction.FixedPricer{P: 50}}
	stream := []timeseries.Bid{
		{Buyer: 0, Valuation: 60, Amount: 60, Final: true},
		{Buyer: 1, Valuation: 40, Amount: 40, Final: true},
		{Buyer: 2, Valuation: 80, Amount: 80, Final: true},
	}
	res := Replay(p, stream, true)
	if res.Bids != 3 || res.Allocations != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Revenue != 100 {
		t.Fatalf("revenue = %v, want 100", res.Revenue)
	}
	if res.Surplus != (60-50)+(80-50) {
		t.Fatalf("surplus = %v, want 40", res.Surplus)
	}
}

func TestReplaySkipWon(t *testing.T) {
	p := StreamPricerAdapter{P: auction.FixedPricer{P: 50}}
	// Buyer 0 wins at its first bid; later bids must be dropped.
	stream := []timeseries.Bid{
		{Buyer: 0, Valuation: 100, Amount: 100},
		{Buyer: 0, Valuation: 100, Amount: 100, Final: true},
	}
	res := Replay(p, stream, true)
	if res.Bids != 1 || res.Allocations != 1 || res.Revenue != 50 {
		t.Fatalf("skipWon result = %+v", res)
	}
	res = Replay(p, stream, false)
	if res.Bids != 2 || res.Allocations != 2 || res.Revenue != 100 {
		t.Fatalf("keep result = %+v", res)
	}
}

func TestEnginePricerAdapts(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Seed = 1
	e := core.MustNew(cfg)
	p := EnginePricer{E: e}
	alloc, price := p.Decide(1000)
	if !alloc || price <= 0 {
		t.Fatalf("Decide = %v, %v", alloc, price)
	}
}

func TestOptFactoryPricesInHindsight(t *testing.T) {
	opt := OptFactory()
	p := opt(nil, 0, []float64{10, 20, 30})
	for range 2 { // a fixed price ignores bids
		if allocated, price := p.Decide(1000); !allocated || price != 20 {
			t.Fatalf("Decide = %v, %v, want a sale at Equation 2's 20", allocated, price)
		}
	}
	if _, price := opt(p, 0, []float64{5}).Decide(1); price != 5 {
		t.Fatalf("a recycled Opt posts %v for the stream {5}, want 5", price)
	}
}

func TestRunProducesSamplesPerFactory(t *testing.T) {
	results, err := Run(testSpec(), map[string]PricerFactory{
		"mw":  EngineFactory(testEngineConfig()),
		"opt": OptFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results keys = %d", len(results))
	}
	for name, rs := range results {
		if len(rs) != 5 {
			t.Fatalf("%s: %d samples", name, len(rs))
		}
		for i, r := range rs {
			if r.Bids == 0 {
				t.Fatalf("%s sample %d saw no bids", name, i)
			}
			if r.Revenue < 0 || r.Surplus < -1e9 {
				t.Fatalf("%s sample %d = %+v", name, i, r)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(testSpec(), nil); err == nil {
		t.Fatal("no factories accepted")
	}
	spec := testSpec()
	spec.Series = -1
	if _, err := Run(spec, map[string]PricerFactory{"opt": OptFactory()}); err == nil {
		t.Fatal("negative series accepted")
	}
	spec = testSpec()
	spec.AR.Mean = 0 // invalid generator config must surface
	if _, err := Run(spec, map[string]PricerFactory{"opt": OptFactory()}); err == nil {
		t.Fatal("bad AR config accepted")
	}
	spec = testSpec()
	spec.Strategic.Horizon = 0
	if _, err := Run(spec, map[string]PricerFactory{"opt": OptFactory()}); err == nil {
		t.Fatal("bad strategic config accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	factories := map[string]PricerFactory{"mw": EngineFactory(testEngineConfig())}
	a, err := Run(testSpec(), factories)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSpec(), factories)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a["mw"] {
		if a["mw"][i] != b["mw"][i] {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, a["mw"][i], b["mw"][i])
		}
	}
}

func TestOptDominatesOnTruthfulStreams(t *testing.T) {
	// On truthful streams, the offline optimal fixed price should collect
	// at least as much revenue as any online baseline, per series, up to
	// the skip-after-win interaction (winners leave the stream, which can
	// only reduce later revenue for Opt too). Compare means with a small
	// tolerance.
	spec := testSpec()
	spec.Series = 10
	results, err := Run(spec, map[string]PricerFactory{
		"opt": OptFactory(),
		"avg": EpochSummaryFactory(8, auction.AvgSummary, 100),
		"mw":  EngineFactory(testEngineConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(name string) float64 {
		var s float64
		for _, r := range results[name] {
			s += r.Revenue
		}
		return s / float64(len(results[name]))
	}
	opt := mean("opt")
	if opt <= 0 {
		t.Fatal("Opt raised nothing")
	}
	for _, name := range []string{"avg", "mw"} {
		if m := mean(name); m > opt*1.05 {
			t.Errorf("%s mean revenue %v exceeds Opt %v", name, m, opt)
		}
	}
}

func TestStrategicBuyersHurtRevenue(t *testing.T) {
	// The core claim of RQ6/RQ8: low strategic bids reduce revenue, more
	// so for small epochs. Check PCT=0.9 < PCT=0 revenue for E=1.
	mk := func(pct float64) float64 {
		spec := testSpec()
		spec.Series = 10
		spec.Strategic = timeseries.StrategicConfig{PCT: pct, Beta: 0, Horizon: 4, Floor: 1}
		cfg := testEngineConfig()
		cfg.EpochSize = 1
		results, err := Run(spec, map[string]PricerFactory{"mw": EngineFactory(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, r := range results["mw"] {
			s += r.Revenue
		}
		return s / float64(len(results["mw"]))
	}
	honest := mk(0)
	attacked := mk(0.9)
	if attacked >= honest {
		t.Fatalf("strategic attack did not reduce revenue: %v >= %v", attacked, honest)
	}
}

func TestLargerEpochResistsAttackBetter(t *testing.T) {
	// Epoch-Shield's central claim (Figure 3b): under heavy attack,
	// larger epochs retain more revenue than E=1.
	mk := func(epoch int) float64 {
		spec := testSpec()
		spec.Series = 15
		spec.Strategic = timeseries.StrategicConfig{PCT: 0.9, Beta: 0, Horizon: 4, Floor: 1}
		cfg := testEngineConfig()
		cfg.EpochSize = epoch
		results, err := Run(spec, map[string]PricerFactory{"mw": EngineFactory(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, r := range results["mw"] {
			s += r.Revenue
		}
		return s / float64(len(results["mw"]))
	}
	small := mk(1)
	large := mk(16)
	if large <= small {
		t.Fatalf("E=16 revenue %v <= E=1 revenue %v under attack", large, small)
	}
}

func TestProjections(t *testing.T) {
	rs := []Result{{Revenue: 10, Surplus: 5}, {Revenue: 20, Surplus: 2}}
	if rev := Revenues(rs); rev[0] != 10 || rev[1] != 20 {
		t.Fatalf("Revenues = %v", rev)
	}
	if sur := Surpluses(rs); sur[0] != 5 || sur[1] != 2 {
		t.Fatalf("Surpluses = %v", sur)
	}
}

func TestDPFactoryRuns(t *testing.T) {
	spec := testSpec()
	spec.Series = 3
	results, err := Run(spec, map[string]PricerFactory{
		"dp": DPFactory(dp.Config{
			Epsilon: 1, MinBid: 0, MaxBid: 300, EpochSize: 8, InitialPrice: 100,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results["dp"] {
		if r.Bids == 0 {
			t.Fatal("dp pricer saw no bids")
		}
	}
}

func TestRandomPricerFactoryRuns(t *testing.T) {
	spec := testSpec()
	spec.Series = 3
	results, err := Run(spec, map[string]PricerFactory{
		"random": RuleFactory(testEngineConfig(), core.DrawRandom),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results["random"] {
		if r.Bids == 0 {
			t.Fatal("random pricer saw no bids")
		}
	}
}
