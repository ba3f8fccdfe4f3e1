package experiments

import (
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/userstudy"
)

// Table1 reproduces Table 1 (RQ1): descriptive statistics of panel bids
// at valuations 500 and 1500 with the one-sample Wilcoxon test.
func Table1(o Options) ([]userstudy.Table1Row, error) {
	if err := o.resolve(); err != nil {
		return nil, err
	}
	return userstudy.NewPanel(o.Panel, o.Seed).Table1(500, 1500)
}

// LeakFigure is the Figure 2a/2b payload: the three bid distributions
// (No-leak, Past, Random) as histograms over the slider range [0, 2v],
// plus the underlying study with its statistical tests.
type LeakFigure struct {
	Valuation float64
	// Arms maps arm name to its histogram (16 bins over [0, 2v]).
	Arms map[string]*stats.Histogram
	// ArmOrder is the presentation order.
	ArmOrder []string
	// Study carries the raw bids and test results.
	Study userstudy.LeakStudy
}

func leakFigure(o Options, v float64) (LeakFigure, error) {
	if err := o.resolve(); err != nil {
		return LeakFigure{}, err
	}
	// Mix the valuation into the panel seed: the study controls for the
	// price effect by asking about different price magnitudes, so the
	// two figures should not share a bit-identical draw sequence.
	study, err := userstudy.NewPanel(o.Panel, o.Seed^uint64(v)*2654435761).RunLeakStudy(v)
	if err != nil {
		return LeakFigure{}, err
	}
	const bins = 16
	return LeakFigure{
		Valuation: v,
		Arms: map[string]*stats.Histogram{
			"No-leak": stats.NewHistogram(study.NoLeak, 0, 2*v, bins),
			"Past":    stats.NewHistogram(study.Past, 0, 2*v, bins),
			"Random":  stats.NewHistogram(study.Random, 0, 2*v, bins),
		},
		ArmOrder: []string{"No-leak", "Past", "Random"},
		Study:    study,
	}, nil
}

// Fig2a reproduces Figure 2a: bid distributions at valuation 500 under
// the No-leak, Past, and Random interventions (RQ1-RQ3).
func Fig2a(o Options) (LeakFigure, error) { return leakFigure(o, 500) }

// Fig2b reproduces Figure 2b: the same at valuation 1500.
func Fig2b(o Options) (LeakFigure, error) { return leakFigure(o, 1500) }

// Fig2c reproduces Figure 2c: multi-round bid plans at valuation 2000
// over 4 hours, with (W) and without (NW) Time-Shield, reduced to
// p25/median/p75 curves (RQ4-RQ5).
func Fig2c(o Options) (userstudy.TimeShieldStudy, error) {
	if err := o.resolve(); err != nil {
		return userstudy.TimeShieldStudy{}, err
	}
	return userstudy.NewPanel(o.Panel, o.Seed).RunTimeShieldStudy(2000, 4)
}
