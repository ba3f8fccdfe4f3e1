// Package dp implements the differential-privacy alternative to
// Epoch-Shield and Uncertainty-Shield sketched in Section 6.3: the arbiter
// computes the epoch's revenue-optimal posting price and releases it
// through the Laplace mechanism, so that by the DP guarantee no single bid
// changes the price distribution by more than a factor e^epsilon.
//
// The mechanism needs a priori knowledge of the bid range to bound the
// sensitivity S(a) = max(b) - min(b) — exactly the extra requirement the
// paper cites when arguing the MW-based algorithm is simpler to deploy.
// The package exists to support that ablation (experiment X1).
package dp

import (
	"errors"
	"fmt"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/rng"
)

// Config configures a LaplacePricer.
type Config struct {
	// Epsilon is the privacy/protection parameter: lower is more
	// protected. Required, > 0.
	Epsilon float64
	// MinBid and MaxBid bound the bids the market accepts; the Laplace
	// scale is (MaxBid-MinBid)/Epsilon. Required, MaxBid > MinBid >= 0.
	MinBid, MaxBid float64
	// EpochSize is the number of bids per price update. Required, >= 1.
	EpochSize int
	// InitialPrice is in force until the first epoch completes.
	InitialPrice float64
	// Seed seeds the mechanism's noise stream.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.Epsilon > 0) {
		return fmt.Errorf("dp: epsilon %v must be > 0", c.Epsilon)
	}
	if c.MinBid < 0 || c.MaxBid <= c.MinBid {
		return errors.New("dp: need 0 <= MinBid < MaxBid")
	}
	if c.EpochSize < 1 {
		return errors.New("dp: epoch size must be >= 1")
	}
	if c.InitialPrice < 0 {
		return errors.New("dp: initial price must be >= 0")
	}
	return nil
}

// Sensitivity returns S(a) = MaxBid - MinBid, the L1 sensitivity of the
// optimal-posting-price update algorithm over one bid (Section 6.3).
func (c Config) Sensitivity() float64 { return c.MaxBid - c.MinBid }

// LaplacePricer releases an epsilon-DP posting price once per epoch:
// price = a(bids) + Y, Y ~ Lap(S(a)/epsilon), clamped to the valid bid
// range so the market never posts a negative price. It implements the
// same StreamPricer shape as the baselines in internal/auction.
type LaplacePricer struct {
	cfg   Config
	rand  rng.RNG
	price float64
	epoch []float64
	curve auction.Curve // the epoch sorted, in storage kept across epochs
}

// New builds a LaplacePricer from cfg.
func New(cfg Config) (*LaplacePricer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LaplacePricer{
		cfg:   cfg,
		rand:  *rng.New(cfg.Seed),
		price: cfg.InitialPrice,
		epoch: make([]float64, 0, cfg.EpochSize),
	}, nil
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *LaplacePricer {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// PostingPrice implements auction.StreamPricer.
func (p *LaplacePricer) PostingPrice() float64 { return p.price }

// ObserveBid implements auction.StreamPricer. Bids outside the configured
// range are clamped before entering the epoch: the sensitivity bound is
// only valid over the declared range.
func (p *LaplacePricer) ObserveBid(b float64) {
	if b < p.cfg.MinBid {
		b = p.cfg.MinBid
	}
	if b > p.cfg.MaxBid {
		b = p.cfg.MaxBid
	}
	p.epoch = append(p.epoch, b)
	if len(p.epoch) < p.cfg.EpochSize {
		return
	}
	p.curve.Sort(p.epoch)
	base, _ := p.curve.Optimal()
	noise := p.rand.Laplace(0, p.cfg.Sensitivity()/p.cfg.Epsilon)
	price := base + noise
	// Clamp into the valid range: a negative posting price would allocate
	// for free, and one above MaxBid can never sell.
	if price < p.cfg.MinBid {
		price = p.cfg.MinBid
	}
	if price > p.cfg.MaxBid {
		price = p.cfg.MaxBid
	}
	p.price = price
	p.epoch = p.epoch[:0]
}

// Reset restores the initial posting price and reseeds the noise stream
// with seed, leaving the pricer as New builds it with that Seed.
func (p *LaplacePricer) Reset(seed uint64) {
	p.cfg.Seed = seed
	p.rand = *rng.New(seed)
	p.price = p.cfg.InitialPrice
	p.epoch = p.epoch[:0]
}
