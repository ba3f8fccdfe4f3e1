package dp

import (
	"math"
	"testing"

	"github.com/datamarket/shield/internal/rng"
)

func testConfig() Config {
	return Config{
		Epsilon:      1.0,
		MinBid:       0,
		MaxBid:       100,
		EpochSize:    8,
		InitialPrice: 50,
		Seed:         1,
	}
}

func TestValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Epsilon: 0, MaxBid: 1, EpochSize: 1},
		{Epsilon: 1, MinBid: 5, MaxBid: 5, EpochSize: 1},
		{Epsilon: 1, MinBid: -1, MaxBid: 5, EpochSize: 1},
		{Epsilon: 1, MaxBid: 1, EpochSize: 0},
		{Epsilon: 1, MaxBid: 1, EpochSize: 1, InitialPrice: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestSensitivity(t *testing.T) {
	cfg := testConfig()
	if s := cfg.Sensitivity(); s != 100 {
		t.Fatalf("Sensitivity = %v", s)
	}
}

func TestPriceUpdatesPerEpochAndStaysInRange(t *testing.T) {
	p := MustNew(testConfig())
	if p.PostingPrice() != 50 {
		t.Fatalf("initial price = %v", p.PostingPrice())
	}
	for i := 0; i < 7; i++ {
		p.ObserveBid(60)
		if p.PostingPrice() != 50 {
			t.Fatal("price moved mid-epoch")
		}
	}
	p.ObserveBid(60)
	price := p.PostingPrice()
	if price < 0 || price > 100 {
		t.Fatalf("price %v outside bid range", price)
	}
	for i := 0; i < 500; i++ {
		p.ObserveBid(60)
		if pr := p.PostingPrice(); pr < 0 || pr > 100 {
			t.Fatalf("price %v escaped clamp", pr)
		}
	}
}

func TestNoiseScaleShrinksWithEpsilon(t *testing.T) {
	// With a large epsilon the released price must hug the epoch optimum;
	// with a tiny epsilon it should wander much more.
	spread := func(eps float64) float64 {
		cfg := testConfig()
		cfg.Epsilon = eps
		p := MustNew(cfg)
		var devs []float64
		for i := 0; i < 400; i++ {
			p.ObserveBid(60) // epoch optimum is always 60
			if i%cfg.EpochSize == cfg.EpochSize-1 {
				devs = append(devs, math.Abs(p.PostingPrice()-60))
			}
		}
		var sum float64
		for _, d := range devs {
			sum += d
		}
		return sum / float64(len(devs))
	}
	tight := spread(100)
	loose := spread(0.5)
	if tight >= loose {
		t.Fatalf("mean |price-60|: eps=100 gives %v, eps=0.5 gives %v", tight, loose)
	}
	if tight > 5 {
		t.Fatalf("eps=100 spread %v too large", tight)
	}
}

func TestBidsClampedToRange(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 2
	cfg.Epsilon = 1000 // nearly noiseless
	p := MustNew(cfg)
	// Outrageous bids clamp to 100, so the epoch optimum is at most 100.
	p.ObserveBid(1e9)
	p.ObserveBid(1e9)
	if price := p.PostingPrice(); price > 100 {
		t.Fatalf("price %v from clamped bids", price)
	}
	p.ObserveBid(-50)
	p.ObserveBid(-50)
	if price := p.PostingPrice(); price < 0 {
		t.Fatalf("negative price %v", price)
	}
}

func TestResetReplaysNoise(t *testing.T) {
	p := MustNew(testConfig())
	r := rng.New(9)
	bids := make([]float64, 200)
	for i := range bids {
		bids[i] = r.Uniform(0, 100)
	}
	var first []float64
	for _, b := range bids {
		p.ObserveBid(b)
		first = append(first, p.PostingPrice())
	}
	p.Reset(testConfig().Seed)
	if p.PostingPrice() != 50 {
		t.Fatal("Reset did not restore initial price")
	}
	for i, b := range bids {
		p.ObserveBid(b)
		if p.PostingPrice() != first[i] {
			t.Fatalf("noise stream diverged at %d", i)
		}
	}
}

func TestEpsilonControlsSingleBidInfluence(t *testing.T) {
	// Empirical DP-flavored check: two epochs differing in one bid should
	// yield price distributions whose high-level statistics are close
	// when epsilon is small (strong protection), and far when epsilon is
	// huge (no protection). We measure the shift in the mean released
	// price across many noise draws.
	meanPrice := func(eps float64, lowBid float64, seed uint64) float64 {
		cfg := testConfig()
		cfg.Epsilon = eps
		cfg.EpochSize = 4
		cfg.Seed = seed
		var sum float64
		const rounds = 2000
		for i := 0; i < rounds; i++ {
			p := MustNew(Config{
				Epsilon: eps, MinBid: 0, MaxBid: 100, EpochSize: 4,
				InitialPrice: 50, Seed: seed + uint64(i),
			})
			p.ObserveBid(60)
			p.ObserveBid(60)
			p.ObserveBid(60)
			p.ObserveBid(lowBid)
			sum += p.PostingPrice()
		}
		return sum / rounds
	}
	// Huge epsilon: the low bid visibly moves the released price?
	// Optimal price of {60,60,60,60} is 60 and of {60,60,60,0} is 60 too
	// (3*60 > 4*0), so use a low bid that changes the optimum: bid 90.
	// {60,60,60,90}: optimum max(4*60, 1*90)=240 -> 60. Use {90,90,90,x}:
	// x=90 -> opt 90; x=0 -> 3*90=270 -> price 90. Still same. Instead
	// compare {60,60,60,60} vs {20,20,20,20}: price 60 vs 20.
	shiftBig := math.Abs(meanPrice(1000, 60, 1) - func() float64 {
		cfg := testConfig()
		cfg.Epsilon = 1000
		var sum float64
		const rounds = 2000
		for i := 0; i < rounds; i++ {
			p := MustNew(Config{
				Epsilon: 1000, MinBid: 0, MaxBid: 100, EpochSize: 4,
				InitialPrice: 50, Seed: 1 + uint64(i),
			})
			for j := 0; j < 4; j++ {
				p.ObserveBid(20)
			}
			sum += p.PostingPrice()
		}
		return sum / rounds
	}())
	if shiftBig < 30 {
		t.Fatalf("eps=1000 shift %v, want ~40 (no protection)", shiftBig)
	}
	// Tiny epsilon: prices are dominated by clamped noise; the same two
	// epochs release nearly identical (clamp-flattened) distributions.
	shiftSmall := math.Abs(meanPrice(0.05, 60, 7) - func() float64 {
		var sum float64
		const rounds = 2000
		for i := 0; i < rounds; i++ {
			p := MustNew(Config{
				Epsilon: 0.05, MinBid: 0, MaxBid: 100, EpochSize: 4,
				InitialPrice: 50, Seed: 7 + uint64(i),
			})
			for j := 0; j < 4; j++ {
				p.ObserveBid(20)
			}
			sum += p.PostingPrice()
		}
		return sum / rounds
	}())
	if shiftSmall > 10 {
		t.Fatalf("eps=0.05 shift %v, want small (strong protection)", shiftSmall)
	}
}
