package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"github.com/datamarket/shield/internal/experiments"
	"github.com/datamarket/shield/internal/render"
)

func runTable1(o experiments.Options, csv string, out io.Writer) error {
	rows, err := experiments.Table1(o)
	if err != nil {
		return err
	}
	t := render.NewTable("valuation", "mean", "std", "median", "p-value")
	var raw [][]float64
	for _, r := range rows {
		t.AddRowf(r.Valuation, r.Mean, r.Std, r.Median, r.P)
		raw = append(raw, []float64{r.Valuation, r.Mean, r.Std, r.Median, r.P})
	}
	if err := t.Render(out); err != nil {
		return err
	}
	return writeCSV(csv, []string{"valuation", "mean", "std", "median", "p"}, raw)
}

func figLeak(fn func(experiments.Options) (experiments.LeakFigure, error)) func(experiments.Options, string, io.Writer) error {
	return func(o experiments.Options, csv string, out io.Writer) error {
		fig, err := fn(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "bid histograms over [0, %g], %d participants\n", 2*fig.Valuation, len(fig.Study.NoLeak))
		h0 := fig.Arms[fig.ArmOrder[0]]
		t := render.NewTable(append([]string{"bin"}, fig.ArmOrder...)...)
		var raw [][]float64
		for i := range h0.Counts {
			row := []any{fmt.Sprintf("%.0f", h0.BinCenter(i))}
			rawRow := []float64{h0.BinCenter(i)}
			for _, arm := range fig.ArmOrder {
				c := fig.Arms[arm].Counts[i]
				row = append(row, c)
				rawRow = append(rawRow, float64(c))
			}
			t.AddRowf(row...)
			raw = append(raw, rawRow)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "Wilcoxon: Past<NoLeak p=%.4g | Random<NoLeak p=%.4g | Random>Past p=%.4g\n",
			fig.Study.PastVsNoLeak.P, fig.Study.RandomVsNoLeak.P, fig.Study.RandomVsPast.P)
		fmt.Fprintf(out, "normality (No-leak): D'Agostino-Pearson p=%.4g, Shapiro-Francia p=%.4g\n",
			fig.Study.NormalityK2.P, fig.Study.NormalitySF.P)
		return writeCSV(csv, append([]string{"bin"}, fig.ArmOrder...), raw)
	}
}

func runFig2c(o experiments.Options, csv string, out io.Writer) error {
	s, err := experiments.Fig2c(o)
	if err != nil {
		return err
	}
	t := render.NewTable("hour", "NW-p25", "NW-median", "NW-p75", "W-p25", "W-median", "W-p75", "p (W>NW)")
	var raw [][]float64
	for h := 0; h < s.Hours; h++ {
		t.AddRowf(h+1, s.NWp25[h], s.NWp50[h], s.NWp75[h], s.Wp25[h], s.Wp50[h], s.Wp75[h], s.HourlyP[h])
		raw = append(raw, []float64{float64(h + 1), s.NWp25[h], s.NWp50[h], s.NWp75[h], s.Wp25[h], s.Wp50[h], s.Wp75[h], s.HourlyP[h]})
	}
	if err := t.Render(out); err != nil {
		return err
	}
	return writeCSV(csv, []string{"hour", "nw_p25", "nw_p50", "nw_p75", "w_p25", "w_p50", "w_p75", "p"}, raw)
}

func figBox(fn func(experiments.Options) (experiments.BoxSeries, error), measure string) func(experiments.Options, string, io.Writer) error {
	return func(o experiments.Options, csv string, out io.Writer) error {
		bs, err := fn(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s by %s (mean [p25 median p75] of %s)\n", measure, bs.XLabel, measure)
		header := append([]string{bs.XLabel}, bs.Order...)
		t := render.NewTable(header...)
		var raw [][]float64
		for i, x := range bs.Xs {
			row := []any{x}
			rawRow := make([]float64, 0, len(bs.Order)+1)
			rawRow = append(rawRow, float64(i))
			for _, g := range bs.Order {
				s := bs.Groups[g][i]
				row = append(row, fmt.Sprintf("%.3f [%.2f %.2f %.2f]", s.Mean, s.P25, s.Median, s.P75))
				rawRow = append(rawRow, s.Mean)
			}
			t.AddRowf(row...)
			raw = append(raw, rawRow)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		// One box strip per group at the final x position, for shape.
		last := len(bs.Xs) - 1
		fmt.Fprintf(out, "distribution at %s=%s:\n", bs.XLabel, bs.Xs[last])
		for _, g := range bs.Order {
			fmt.Fprintf(out, "  %-8s |%s| 0..1\n", g, render.BoxStrip(bs.Groups[g][last], 0, 1, 50))
		}
		return writeCSV(csv, append([]string{bs.XLabel}, bs.Order...), raw)
	}
}

func figHeat(fn func(experiments.Options) (experiments.HeatmapResult, error)) func(experiments.Options, string, io.Writer) error {
	return func(o experiments.Options, csv string, out io.Writer) error {
		hm, err := fn(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "normalized revenue, PCT=%.1f\n", hm.PCT)
		rows := make([]string, len(hm.Horizons))
		for i, h := range hm.Horizons {
			rows[i] = fmt.Sprintf("H=%d", h)
		}
		cols := make([]string, len(hm.Betas))
		for i, b := range hm.Betas {
			cols[i] = experiments.BetaLabel(b)
		}
		heat := &render.Heatmap{
			RowLabel: "horizon", ColLabel: "beta",
			Rows: rows, Cols: cols, Values: hm.Values,
		}
		if err := heat.Render(out); err != nil {
			return err
		}
		var raw [][]float64
		for i, h := range hm.Horizons {
			row := append([]float64{float64(h)}, hm.Values[i]...)
			raw = append(raw, row)
		}
		return writeCSV(csv, append([]string{"horizon"}, cols...), raw)
	}
}

func runExPost(o experiments.Options, csv string, out io.Writer) error {
	res, err := experiments.X2ExPost(o)
	if err != nil {
		return err
	}
	t := render.NewTable("arm", "revenue", "grants")
	t.AddRowf("ex-ante (truthful bids)", res.ExAnteRevenue, res.Rounds)
	t.AddRowf("ex-post honest", res.HonestRevenue, res.HonestGrants)
	t.AddRowf(fmt.Sprintf("ex-post under-reporting (%.0f%%)", res.CheatFraction*100), res.CheatRevenue, res.CheatGrants)
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "under-reporter lost the ex-post option: %v\n", res.CheatDeactivated)
	return writeCSV(csv, []string{"arm", "revenue", "grants"}, [][]float64{
		{0, res.ExAnteRevenue, float64(res.Rounds)},
		{1, res.HonestRevenue, float64(res.HonestGrants)},
		{2, res.CheatRevenue, float64(res.CheatGrants)},
	})
}

func runWaitPeriods(o experiments.Options, csv string, out io.Writer) error {
	res, err := experiments.X3WaitPeriods(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "engine warmed to most-likely price %.1f\n", res.WarmPrice)
	t := render.NewTable("losing bid", "Bound wait", "Stable wait")
	var raw [][]float64
	for i, b := range res.Bids {
		t.AddRowf(b, res.Bound[i], res.Stable[i])
		raw = append(raw, []float64{b, float64(res.Bound[i]), float64(res.Stable[i])})
	}
	if err := t.Render(out); err != nil {
		return err
	}
	return writeCSV(csv, []string{"bid", "bound", "stable"}, raw)
}

func runInterleaving(o experiments.Options, csv string, out io.Writer) error {
	res, err := experiments.X4Interleaving(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "fraction of E=8 epochs whose Eq. 2 optimum collapses below 25% of the mean valuation")
	t := render.NewTable("PCT", "interleaved", "burst")
	var raw [][]float64
	for i, pct := range res.PCTs {
		t.AddRowf(fmt.Sprintf("%.1f", pct), res.Interleaved[i], res.Burst[i])
		raw = append(raw, []float64{pct, res.Interleaved[i], res.Burst[i]})
	}
	if err := t.Render(out); err != nil {
		return err
	}
	return writeCSV(csv, []string{"pct", "interleaved", "burst"}, raw)
}

func runBestResponse(o experiments.Options, csv string, out io.Writer) error {
	res, err := experiments.X7BestResponse(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mean per-buyer utility by strategy group, %d sessions per arm\n", res.Sessions)
	t := render.NewTable("arm", "truthful", "strategic", "strategic wins", "revenue")
	t.AddRowf("no Time-Shield", res.TruthfulUtilityNoShield, res.StrategicUtilityNoShield,
		res.StrategicWinsNoShield, res.RevenueNoShield)
	t.AddRowf("Time-Shield (stubborn)", res.TruthfulUtilityShield, res.StrategicUtilityShield,
		res.StrategicWinsShield, res.RevenueShield)
	t.AddRowf("Time-Shield + RQ5 reaction", res.TruthfulUtilityCautious, res.StrategicUtilityCautious,
		res.StrategicWinsCautious, res.RevenueCautious)
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "strategic advantage: %.2f without waits, %.2f with, %.2f once buyers react (Claim 2 + RQ5)\n",
		res.StrategicAdvantageNoShield(), res.StrategicAdvantageShield(), res.StrategicAdvantageCautious())
	return writeCSV(csv, []string{"arm", "truthful", "strategic", "wins", "revenue"}, [][]float64{
		{0, res.TruthfulUtilityNoShield, res.StrategicUtilityNoShield, float64(res.StrategicWinsNoShield), res.RevenueNoShield},
		{1, res.TruthfulUtilityShield, res.StrategicUtilityShield, float64(res.StrategicWinsShield), res.RevenueShield},
		{2, res.TruthfulUtilityCautious, res.StrategicUtilityCautious, float64(res.StrategicWinsCautious), res.RevenueCautious},
	})
}

func runIntegration(o experiments.Options, csv string, out io.Writer) error {
	res, err := experiments.MarketIntegration(o)
	if err != nil {
		return err
	}
	t := render.NewTable("metric", "value")
	t.AddRowf("revenue", res.Revenue)
	t.AddRowf("transactions", res.Transactions)
	var total float64
	// In id order: map order would shuffle the rows, and the order the
	// floats are summed in, from one run to the next.
	for _, s := range slices.Sorted(maps.Keys(res.SellerBalances)) {
		t.AddRowf("balance "+s, res.SellerBalances[s])
		total += res.SellerBalances[s]
	}
	t.AddRowf("balances sum", total)
	if err := t.Render(out); err != nil {
		return err
	}
	return writeCSV(csv, []string{"revenue", "transactions"}, [][]float64{{res.Revenue, float64(res.Transactions)}})
}

func writeCSV(path string, header []string, rows [][]float64) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render.WriteCSV(f, header, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
