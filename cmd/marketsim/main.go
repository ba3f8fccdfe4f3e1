// Command marketsim regenerates the paper's tables and figures.
//
// Usage:
//
//	marketsim -exp fig3b [-series 100] [-panel 50] [-seed 2022] [-csv out/]
//	marketsim -exp all
//	marketsim -list
//
// Each experiment prints an ASCII rendering of the corresponding paper
// artifact; -csv additionally writes the raw numbers for external
// replotting. Standard output is a function of the flags alone; each
// experiment's elapsed time, and the total, go to standard error. The
// simulated figures use GOMAXPROCS cores.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/experiments"
)

type experiment struct {
	id    string
	about string
	run   func(experiments.Options, string, io.Writer) error
}

func experimentList() []experiment {
	return []experiment{
		{"table1", "Table 1: user-study RQ1 bid statistics", runTable1},
		{"fig2a", "Figure 2a: bid distributions under leaks, v=500", figLeak(experiments.Fig2a)},
		{"fig2b", "Figure 2b: bid distributions under leaks, v=1500", figLeak(experiments.Fig2b)},
		{"fig2c", "Figure 2c: multi-round bids with/without Time-Shield", runFig2c},
		{"fig3a", "Figure 3a: Opt vs MW across AR parameterizations", figBox(experiments.Fig3a, "normalized revenue")},
		{"fig3b", "Figure 3b: Epoch-Shield revenue vs PCT", figBox(experiments.Fig3b, "normalized revenue")},
		{"fig3c", "Figure 3c: Epoch-Shield social surplus vs PCT", figBox(experiments.Fig3c, "normalized surplus")},
		{"fig4a", "Figure 4a: Uncertainty-Shield draw rules", figBox(experiments.Fig4a, "normalized revenue")},
		{"fig4b", "Figure 4b: Time-Shield (beta) revenue vs PCT", figBox(experiments.Fig4b, "normalized revenue")},
		{"fig4c", "Figure 4c: Time-Shield (beta) surplus vs PCT", figBox(experiments.Fig4c, "normalized surplus")},
		{"fig5a", "Figure 5a: update algorithms vs PCT", figBox(experiments.Fig5a, "normalized revenue")},
		{"fig5b", "Figure 5b: revenue heatmap, PCT=0.5", figHeat(experiments.Fig5b)},
		{"fig5c", "Figure 5c: revenue heatmap, PCT=0.9", figHeat(experiments.Fig5c)},
		{"dpablation", "X1: MW vs Laplace-DP across epsilon", figBox(experiments.X1DPAblation, "normalized revenue")},
		{"expost", "X2: ex-post honest vs under-reporting buyers", runExPost},
		{"waitperiod", "X3: Bound vs Stable wait-periods", runWaitPeriods},
		{"interleave", "X4: concurrent vs bursty strategic bidding", runInterleaving},
		{"adaptivegrid", "X5: fixed vs adaptive candidate grids", figBox(experiments.X5AdaptiveGrid, "normalized revenue")},
		{"drift", "X6: drift tracking (fixed-share, regrid)", figBox(experiments.X6DriftTracking, "normalized revenue")},
		{"bestresponse", "X7: buyer utility by strategy, waits on/off (Claim 2)", runBestResponse},
		{"integration", "Market substrate ledger smoke test", runIntegration},
	}
}

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (or 'all')")
		series = flag.Int("series", 0, "random series per configuration (0 = paper's 100)")
		panel  = flag.Int("panel", 0, "user-study panel size (0 = paper's 50)")
		seed   = flag.Uint64("seed", 0, "base seed (0 = 2022)")
		csvDir = flag.String("csv", "", "directory to write raw CSV data (optional)")
		list   = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	exps := experimentList()
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-12s %s\n", e.id, e.about)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opts := experiments.Options{Series: *series, Panel: *panel, Seed: *seed}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	ids := map[string]experiment{}
	var order []string
	for _, e := range exps {
		ids[e.id] = e
		order = append(order, e.id)
	}
	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if _, ok := ids[strings.TrimSpace(id)]; !ok {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
			}
			selected = append(selected, strings.TrimSpace(id))
		}
	}
	sort.SliceStable(selected, func(i, j int) bool {
		return indexOf(order, selected[i]) < indexOf(order, selected[j])
	})

	// Timings go to stderr: stdout is the reproducible artifact.
	begin := time.Now()
	for _, id := range selected {
		e := ids[id]
		fmt.Printf("== %s — %s ==\n", e.id, e.about)
		start := time.Now()
		if err := e.run(opts, csvPath(*csvDir, e.id), os.Stdout); err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "marketsim: %-12s %8.3fs\n", e.id, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "marketsim: %-12s %8.3fs\n", "total", time.Since(begin).Seconds())
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return len(xs)
}

func csvPath(dir, id string) string {
	if dir == "" {
		return ""
	}
	return dir + string(os.PathSeparator) + id + ".csv"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "marketsim:", err)
	os.Exit(1)
}
