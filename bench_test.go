// Benchmark harness: one benchmark per paper table/figure (see DESIGN.md
// for the experiment index). Each benchmark regenerates its artifact and
// reports the figure's headline quantities as custom metrics, so a bench
// run doubles as a shape check of the reproduction:
//
//	go test -bench=. -benchmem
//
// Benchmarks run at reduced series counts (the bench scale) so the whole
// suite completes quickly; `cmd/marketsim` regenerates everything at the
// paper's full 100-series scale.
package shield_test

import (
	"testing"

	"github.com/datamarket/shield/internal/experiments"
)

// benchOpts is the reduced scale used by the benchmark harness.
func benchOpts() experiments.Options {
	return experiments.Options{Series: 25, Panel: 50, Seed: 2022}
}

func BenchmarkTable1_UserStudyRQ1(b *testing.B) {
	var mean500 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mean500 = rows[0].Mean
	}
	b.ReportMetric(mean500, "mean-bid@v=500")
}

func BenchmarkFig2a_LeakDistributions500(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		drop = fig.Study.MeanDropPast
	}
	b.ReportMetric(drop, "mean-bid-drop-under-leak")
}

func BenchmarkFig2b_LeakDistributions1500(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		drop = fig.Study.MeanDropPast
	}
	b.ReportMetric(drop, "mean-bid-drop-under-leak")
}

func BenchmarkFig2c_TimeShieldUserStudy(b *testing.B) {
	var lift float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig2c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lift = s.Wp50[0] - s.NWp50[0]
	}
	b.ReportMetric(lift, "median-opening-bid-lift")
}

func BenchmarkFig3a_ARSensitivity(b *testing.B) {
	var mwOverOpt float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig3a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mwOverOpt = bs.Groups["MW"][0].Mean / bs.Groups["Opt"][0].Mean
	}
	b.ReportMetric(mwOverOpt, "MW/Opt@AR=0.1")
}

func BenchmarkFig3b_EpochShieldRevenue(b *testing.B) {
	var protection float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig3b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(bs.Xs) - 1
		protection = bs.Groups["E=16"][last].Mean / maxf(bs.Groups["E=1"][last].Mean, 1e-9)
	}
	b.ReportMetric(protection, "E16/E1-revenue@PCT=0.9")
}

func BenchmarkFig3c_EpochShieldSurplus(b *testing.B) {
	var surplus float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig3c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		surplus = bs.Groups["E=16"][len(bs.Xs)-1].Mean
	}
	b.ReportMetric(surplus, "E16-surplus@PCT=0.9")
}

func BenchmarkFig4a_UncertaintyShield(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Overhead of Uncertainty-Shield: MW relative to MW-Max at E=8.
		gap = bs.Groups["MW"][3].Mean / maxf(bs.Groups["MW-Max"][3].Mean, 1e-9)
	}
	b.ReportMetric(gap, "MW/MW-Max@E=8")
}

func BenchmarkFig4b_TimeShieldRevenue(b *testing.B) {
	var betaGain float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(bs.Xs) - 1
		betaGain = bs.Groups["0.75"][last].Mean / maxf(bs.Groups["min"][last].Mean, 1e-9)
	}
	b.ReportMetric(betaGain, "beta0.75/min-revenue@PCT=0.9")
}

func BenchmarkFig4c_TimeShieldSurplus(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig4c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		s = bs.Groups["0.75"][len(bs.Xs)-1].Mean
	}
	b.ReportMetric(s, "beta0.75-surplus@PCT=0.9")
}

func BenchmarkFig5a_UpdateAlgorithms(b *testing.B) {
	var mwOverAvg float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.Fig5a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mwOverAvg = bs.Groups["MW"][0].Mean / maxf(bs.Groups["avg"][0].Mean, 1e-9)
	}
	b.ReportMetric(mwOverAvg, "MW/avg-revenue@PCT=0")
}

func BenchmarkFig5b_HeatmapPCT50(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		hm, err := experiments.Fig5b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		worst = minCell(hm.Values)
	}
	b.ReportMetric(worst, "worst-cell@PCT=0.5")
}

func BenchmarkFig5c_HeatmapPCT90(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		hm, err := experiments.Fig5c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		worst = minCell(hm.Values)
	}
	b.ReportMetric(worst, "worst-cell@PCT=0.9")
}

func BenchmarkX1_DPAblation(b *testing.B) {
	var mwOverDP float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.X1DPAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mwOverDP = bs.Groups["MW"][0].Mean / maxf(bs.Groups["DP-Laplace"][0].Mean, 1e-9)
	}
	b.ReportMetric(mwOverDP, "MW/DP-revenue@eps=0.1")
}

func BenchmarkX2_ExPost(b *testing.B) {
	var honestOverCheat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X2ExPost(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		honestOverCheat = res.HonestRevenue / maxf(res.CheatRevenue, 1e-9)
	}
	b.ReportMetric(honestOverCheat, "honest/cheat-revenue")
}

func BenchmarkX3_WaitPeriod(b *testing.B) {
	var deepWait float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X3WaitPeriods(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		deepWait = float64(res.Bound[0])
	}
	b.ReportMetric(deepWait, "bound-wait@bid=10")
}

func BenchmarkMarketIntegration(b *testing.B) {
	var revenue float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.MarketIntegration(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		revenue = res.Revenue
	}
	b.ReportMetric(revenue, "market-revenue")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minCell(values [][]float64) float64 {
	m := 1.0
	for _, row := range values {
		for _, v := range row {
			if v < m {
				m = v
			}
		}
	}
	return m
}

func BenchmarkX4_Interleaving(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X4Interleaving(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.PCTs) - 1
		gap = res.Interleaved[last] - res.Burst[last]
	}
	b.ReportMetric(gap, "collapse-frac-gap@PCT=0.9")
}

func BenchmarkX5_AdaptiveGrid(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.X5AdaptiveGrid(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain = bs.Groups["adaptive"][0].Mean / maxf(bs.Groups["fixed"][0].Mean, 1e-9)
	}
	b.ReportMetric(gain, "adaptive/fixed-revenue@n=4")
}

func BenchmarkX6_DriftTracking(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		bs, err := experiments.X6DriftTracking(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain = bs.Groups["MW+share"][2].Mean / maxf(bs.Groups["MW"][2].Mean, 1e-9)
	}
	b.ReportMetric(gain, "share/plain-revenue@AR=0.99")
}

func BenchmarkX7_BestResponse(b *testing.B) {
	var advGap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X7BestResponse(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		advGap = res.StrategicAdvantageNoShield() - res.StrategicAdvantageShield()
	}
	b.ReportMetric(advGap, "strategic-edge-removed-by-waits")
}
