package sim

import (
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/dp"
)

// EngineFactory returns a factory producing the paper's MW engine from a
// config template; the per-series seed overrides cfg.Seed, and wait
// computation is disabled (static replays encode buyer timing already).
// A recycled engine is Reset to the seed.
func EngineFactory(cfg core.Config) PricerFactory {
	cfg.DisableWaitPeriods = true
	return func(prev Pricer, seed uint64, _ []float64) Pricer {
		if prev != nil {
			prev.(EnginePricer).E.Reset(seed)
			return prev
		}
		c := cfg
		c.Seed = seed
		return EnginePricer{E: core.MustNew(c)}
	}
}

// RuleFactory is EngineFactory with a draw-rule override (the Figure 4a
// comparison: MW vs MW-Max vs AdHoc vs Random).
func RuleFactory(cfg core.Config, rule core.DrawRule) PricerFactory {
	cfg.Rule = rule
	return EngineFactory(cfg)
}

// EpochSummaryFactory returns a factory for the avg/p50 baselines of
// Section 7.3.1.
func EpochSummaryFactory(epochSize int, summarize auction.SummaryFunc, initial float64) PricerFactory {
	return func(prev Pricer, _ uint64, _ []float64) Pricer {
		if prev != nil {
			prev.(StreamPricerAdapter).P.(*auction.EpochPricer).Reset()
			return prev
		}
		return StreamPricerAdapter{P: auction.NewEpochPricer(epochSize, summarize, initial)}
	}
}

// optPricer posts the hindsight-optimal price of the curve it keeps, so
// a recycled one sorts the next stream into the same storage.
type optPricer struct {
	auction.FixedPricer
	curve auction.Curve
}

// OptFactory returns the offline-optimal fixed posting price baseline
// ("Opt"): Equation 2 applied to the full stream in hindsight.
func OptFactory() PricerFactory {
	return func(prev Pricer, _ uint64, hindsight []float64) Pricer {
		if prev == nil {
			prev = StreamPricerAdapter{P: new(optPricer)}
		}
		o := prev.(StreamPricerAdapter).P.(*optPricer)
		o.curve.Sort(hindsight)
		o.P, _ = o.curve.Optimal()
		return prev
	}
}

// DPFactory returns the Laplace-mechanism pricer of Section 6.3; the
// per-series seed overrides cfg.Seed.
func DPFactory(cfg dp.Config) PricerFactory {
	return func(prev Pricer, seed uint64, _ []float64) Pricer {
		if prev != nil {
			prev.(StreamPricerAdapter).P.(*dp.LaplacePricer).Reset(seed)
			return prev
		}
		c := cfg
		c.Seed = seed
		return StreamPricerAdapter{P: dp.MustNew(c)}
	}
}
