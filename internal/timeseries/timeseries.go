// Package timeseries generates the bid workloads of the paper's simulation
// study (Section 7.2.1): autoregressive valuation series — each point is
// one buyer arriving with its private valuation — and the strategic-buyer
// transform governed by the triple <PCT, beta, H>.
package timeseries

import (
	"errors"
	"fmt"
	"slices"

	"github.com/datamarket/shield/internal/rng"
)

// ARConfig parameterizes the AR(1) valuation generator
// x_t = AR*x_{t-1} + e_t, e ~ N(0, Sigma), mapped into valuation units as
// v_t = Mean * (1 + Scale*x_t), clamped at Floor. The paper's grid
// (footnote 8) sweeps (AR, Sigma) over
// (0.1, 0.01), (0.5, 0.01), (0.9, 0.01), (0.999, 0.01).
type ARConfig struct {
	// AR is the autoregressive coefficient in [0, 1).
	AR float64
	// Sigma is the innovation standard deviation, > 0.
	Sigma float64
	// Mean is the long-run valuation level, > 0.
	Mean float64
	// Scale maps the latent AR process into relative valuation swings;
	// 0 selects a default of 20 (a Sigma of 0.01 then yields roughly
	// +-20-60% valuation movement depending on AR).
	Scale float64
	// Floor is the minimum valuation, >= 0 and < Mean.
	Floor float64
	// Ceil is the maximum valuation; 0 selects 2*Mean (the upper end of
	// the slider range the user study allows). Highly persistent series
	// (AR near 1) would otherwise wander arbitrarily far from Mean.
	Ceil float64
	// N is the number of points (buyers) to generate, >= 1. The paper
	// uses 250 points per series.
	N int
	// BurnIn steps are discarded before sampling so series start at the
	// stationary distribution; 0 selects 100.
	BurnIn int
}

// Validate checks an ARConfig.
func (c ARConfig) Validate() error {
	if c.AR < 0 || c.AR >= 1 {
		return fmt.Errorf("timeseries: AR %v outside [0, 1)", c.AR)
	}
	if !(c.Sigma > 0) {
		return fmt.Errorf("timeseries: Sigma %v must be > 0", c.Sigma)
	}
	if !(c.Mean > 0) {
		return fmt.Errorf("timeseries: Mean %v must be > 0", c.Mean)
	}
	if c.Scale < 0 {
		return errors.New("timeseries: Scale must be >= 0")
	}
	if c.Floor < 0 || c.Floor >= c.Mean {
		return errors.New("timeseries: need 0 <= Floor < Mean")
	}
	if c.Ceil != 0 && c.Ceil <= c.Mean {
		return errors.New("timeseries: need Ceil > Mean (or 0 for the default)")
	}
	if c.N < 1 {
		return errors.New("timeseries: N must be >= 1")
	}
	if c.BurnIn < 0 {
		return errors.New("timeseries: BurnIn must be >= 0")
	}
	return nil
}

// GenerateValuations returns a series of N buyer valuations from cfg,
// deterministic in r's state.
func GenerateValuations(cfg ARConfig, r *rng.RNG) ([]float64, error) {
	return AppendValuations(nil, cfg, r)
}

// AppendValuations is GenerateValuations appending the series to dst, so
// a caller drawing many series reuses one buffer.
func AppendValuations(dst []float64, cfg ARConfig, r *rng.RNG) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return dst, err
	}
	if cfg.Scale == 0 {
		cfg.Scale = 20
	}
	if cfg.BurnIn == 0 {
		cfg.BurnIn = 100
	}
	if cfg.Ceil == 0 {
		cfg.Ceil = 2 * cfg.Mean
	}
	x := 0.0
	for i := 0; i < cfg.BurnIn; i++ {
		x = cfg.AR*x + r.Normal(0, cfg.Sigma)
	}
	start := len(dst)
	dst = slices.Grow(dst, cfg.N)[:start+cfg.N]
	for i := start; i < len(dst); i++ {
		x = cfg.AR*x + r.Normal(0, cfg.Sigma)
		v := cfg.Mean * (1 + cfg.Scale*x)
		if v < cfg.Floor {
			v = cfg.Floor
		}
		if v > cfg.Ceil {
			v = cfg.Ceil
		}
		dst[i] = v
	}
	return dst, nil
}

// Bid is one submitted bid in a simulated stream.
type Bid struct {
	// Buyer identifies the originating buyer (index into the valuation
	// series).
	Buyer int
	// Valuation is the buyer's private valuation v_i.
	Valuation float64
	// Amount is the submitted bid b_i (<= Valuation for strategic bids).
	Amount float64
	// Strategic reports whether the originating buyer is strategic.
	Strategic bool
	// Final reports that this is the buyer's last bidding opportunity —
	// strategic buyers bid truthfully here (Section 4.1).
	Final bool
}

// StrategicConfig is the paper's <PCT, beta, H> triple describing
// strategic buyers (Section 7.2.1).
type StrategicConfig struct {
	// PCT in [0, 1] is the fraction of buyers acting strategically;
	// 0 is the fully truthful market.
	PCT float64
	// Beta in [0, 1] multiplies the true valuation to form the strategic
	// bid; 0 reproduces the paper's "min" setting, where strategic bids
	// sit at the market floor.
	Beta float64
	// Horizon is H = T_i, the strategic buyer's total bidding
	// opportunities: H-1 low bids followed by one truthful bid. >= 1.
	Horizon int
	// Floor is the lowest admissible bid, used when Beta*v falls below
	// it. >= 0.
	Floor float64
	// Burst disables the random interleaving: each buyer's bids appear
	// consecutively. Used by the interleaving ablation (X4) to show why
	// concurrent bidding is the dangerous regime — bursts of H-1 low
	// bids rarely dominate an epoch larger than the horizon.
	Burst bool
}

// Validate checks a StrategicConfig.
func (c StrategicConfig) Validate() error {
	if c.PCT < 0 || c.PCT > 1 {
		return fmt.Errorf("timeseries: PCT %v outside [0, 1]", c.PCT)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("timeseries: Beta %v outside [0, 1]", c.Beta)
	}
	if c.Horizon < 1 {
		return errors.New("timeseries: Horizon must be >= 1")
	}
	if c.Floor < 0 {
		return errors.New("timeseries: Floor must be >= 0")
	}
	return nil
}

// LowBid is a strategic buyer's bid before its last opportunity, for
// valuation v: max(Floor, Beta*v). It is the one field of a stream Beta
// and Floor decide.
func (c StrategicConfig) LowBid(v float64) float64 {
	b := c.Beta * v
	if b < c.Floor {
		return c.Floor
	}
	return b
}

// TruthfulStream turns a valuation series into the ideal stream where
// every buyer bids its valuation once (PCT = 0).
func TruthfulStream(valuations []float64) []Bid {
	return appendTruthful(make([]Bid, 0, len(valuations)), valuations)
}

func appendTruthful(dst []Bid, valuations []float64) []Bid {
	for i, v := range valuations {
		dst = append(dst, Bid{Buyer: i, Valuation: v, Amount: v, Final: true})
	}
	return dst
}

// Transform applies the strategic-buyer transform: each buyer is
// independently strategic with probability PCT; a strategic buyer expands
// into H-1 low bids (LowBid) followed by a truthful bid at v, replacing
// its single point in the stream. Truthful buyers keep their single
// truthful bid. The draw of who is strategic is deterministic in r's
// state.
//
// Buyers bid concurrently: with PCT > 0 the per-buyer bid sequences are
// interleaved uniformly at random (each buyer's own order is preserved),
// so an epoch observes a random mix of low and truthful bids — several
// strategic buyers can dominate an epoch at once, which is exactly the
// condition under which low bids overfit a small-epoch update algorithm
// (Section 3). With PCT = 0 every buyer has a single bid and the stream
// keeps the arrival order of the valuation series, preserving its
// autoregressive structure.
func Transform(valuations []float64, cfg StrategicConfig, r *rng.RNG) ([]Bid, error) {
	return AppendTransform(nil, nil, valuations, cfg, r)
}

// AppendTransform is Transform appending the stream to dst. seen is its
// scratch, one flag per buyer: a caller drawing many streams passes one
// buffer each time, nil or a short one costs an allocation. No draw
// depends on Beta or Floor, so a stream rebid with another config's
// LowBid is that config's stream from the same generator state.
func AppendTransform(dst []Bid, seen []bool, valuations []float64, cfg StrategicConfig, r *rng.RNG) ([]Bid, error) {
	if err := cfg.Validate(); err != nil {
		return dst, err
	}
	if cfg.PCT == 0 {
		return appendTruthful(dst, valuations), nil
	}
	// One draw per buyer, in arrival order, decides who is strategic: a
	// strategic buyer enters H copies of its low bid, a truthful one its
	// single bid. dst has room for the expected count.
	start, n := len(dst), len(valuations)
	dst = slices.Grow(dst, n+int(cfg.PCT*float64(n*(cfg.Horizon-1))))
	for i, v := range valuations {
		if r.Bool(cfg.PCT) {
			low := Bid{Buyer: i, Valuation: v, Amount: cfg.LowBid(v), Strategic: true}
			for range cfg.Horizon {
				dst = append(dst, low)
			}
		} else {
			dst = append(dst, Bid{Buyer: i, Valuation: v, Amount: v, Final: true})
		}
	}
	// Random riffle: shuffling the multiset interleaves the buyers
	// uniformly at random, and with Burst it stays ordered, yielding
	// consecutive per-buyer bursts. A strategic buyer's copies are
	// alike, so its last one in the riffled order becomes its truthful
	// bid, which keeps every buyer's own bid order.
	out := dst[start:]
	if !cfg.Burst {
		rng.Shuffle(r, out)
	}
	if len(seen) < n {
		seen = make([]bool, n)
	}
	clear(seen)
	for k := len(out) - 1; k >= 0; k-- {
		if b := &out[k]; b.Strategic && !seen[b.Buyer] {
			seen[b.Buyer] = true
			b.Amount, b.Final = b.Valuation, true
		}
	}
	return dst, nil
}

// Amounts projects the bid amounts out of a stream.
func Amounts(stream []Bid) []float64 {
	return AppendAmounts(make([]float64, 0, len(stream)), stream)
}

// AppendAmounts is Amounts appending to dst.
func AppendAmounts(dst []float64, stream []Bid) []float64 {
	for _, b := range stream {
		dst = append(dst, b.Amount)
	}
	return dst
}

// PaperARGrid returns the (AR, Sigma) pairs of footnote 8.
func PaperARGrid() [][2]float64 {
	return [][2]float64{{0.1, 0.01}, {0.5, 0.01}, {0.9, 0.01}, {0.999, 0.01}}
}
