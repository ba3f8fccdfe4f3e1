// Command bidgen emits simulated bid streams as CSV: the AR(1) valuation
// process of the paper's Section 7.2.1, optionally run through the
// strategic-buyer transform <PCT, beta, H>, for feeding external tools.
// Live traffic against a running marketd is cmd/shieldload's -addr and
// -wire-addr.
//
// Usage:
//
//	bidgen -n 250 -ar 0.1 -sigma 0.01 -mean 100 > truthful.csv
//	bidgen -n 250 -pct 0.5 -beta 0.25 -horizon 4 -seed 7 > attack.csv
//
// Output columns: index, buyer, valuation, bid, strategic, final.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/timeseries"
)

func main() {
	var (
		n       = flag.Int("n", 250, "number of buyers (series points)")
		ar      = flag.Float64("ar", 0.1, "AR(1) coefficient in [0, 1)")
		sigma   = flag.Float64("sigma", 0.01, "AR(1) innovation stddev")
		mean    = flag.Float64("mean", 100, "mean valuation")
		scale   = flag.Float64("scale", 0, "latent-to-valuation scale (0 = default)")
		floor   = flag.Float64("floor", 1, "valuation/bid floor")
		pct     = flag.Float64("pct", 0, "fraction of strategic buyers")
		beta    = flag.Float64("beta", 0, "strategic bid multiplier (0 = bid the floor)")
		horizon = flag.Int("horizon", 4, "strategic horizon H (total opportunities)")
		seed    = flag.Uint64("seed", 2022, "generator seed")
	)
	flag.Parse()

	r := rng.New(*seed)
	vals, err := timeseries.GenerateValuations(timeseries.ARConfig{
		AR: *ar, Sigma: *sigma, Mean: *mean, Scale: *scale, Floor: *floor, N: *n,
	}, r)
	if err != nil {
		log.Fatalf("bidgen: %v", err)
	}
	stream, err := timeseries.Transform(vals, timeseries.StrategicConfig{
		PCT: *pct, Beta: *beta, Horizon: *horizon, Floor: *floor,
	}, r.Split())
	if err != nil {
		log.Fatalf("bidgen: %v", err)
	}

	w := csv.NewWriter(os.Stdout)
	if err := w.Write([]string{"index", "buyer", "valuation", "bid", "strategic", "final"}); err != nil {
		log.Fatalf("bidgen: %v", err)
	}
	for i, b := range stream {
		rec := []string{
			strconv.Itoa(i),
			strconv.Itoa(b.Buyer),
			fmt.Sprintf("%g", b.Valuation),
			fmt.Sprintf("%g", b.Amount),
			strconv.FormatBool(b.Strategic),
			strconv.FormatBool(b.Final),
		}
		if err := w.Write(rec); err != nil {
			log.Fatalf("bidgen: %v", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		log.Fatalf("bidgen: %v", err)
	}
}
