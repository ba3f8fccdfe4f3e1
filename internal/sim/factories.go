package sim

import (
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/dp"
)

// EngineFactory returns a factory producing the paper's MW engine from a
// config template; the per-series seed overrides cfg.Seed, and wait
// computation is disabled (static replays encode buyer timing already).
func EngineFactory(cfg core.Config) PricerFactory {
	return func(seed uint64, _ []float64) Pricer {
		c := cfg
		c.Seed = seed
		c.DisableWaitPeriods = true
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
	return func(uint64, []float64) Pricer {
		return StreamPricerAdapter{P: auction.NewEpochPricer(epochSize, summarize, initial)}
	}
}

// OptFactory returns the offline-optimal fixed posting price baseline
// ("Opt"): Equation 2 applied to the full stream in hindsight.
func OptFactory() PricerFactory {
	return func(_ uint64, hindsight []float64) Pricer {
		return StreamPricerAdapter{P: auction.OfflineOptimalPricer(hindsight)}
	}
}

// DPFactory returns the Laplace-mechanism pricer of Section 6.3; the
// per-series seed overrides cfg.Seed.
func DPFactory(cfg dp.Config) PricerFactory {
	return func(seed uint64, _ []float64) Pricer {
		c := cfg
		c.Seed = seed
		return StreamPricerAdapter{P: dp.MustNew(c)}
	}
}
