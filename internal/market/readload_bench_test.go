package market

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
)

// BenchmarkReadUnderLoad measures read-endpoint throughput while a bid
// storm occupies the write path: background goroutines hammer SubmitBid
// across every dataset while the benchmark loop calls StatsAll plus a
// point Stats lookup — the exact mix the /metrics scrape and the stats
// endpoints issue. Before the command-core refactor these reads took
// every lock the market had, contending with the storm; since then they
// read published views and never meet a writer. EXPERIMENTS.md X9
// records the before/after deltas.
func BenchmarkReadUnderLoad(b *testing.B) {
	m := MustNew(Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 200, 12),
			EpochSize:  8,
			MinBid:     5,
		},
		Seed: 42,
	})
	if err := m.RegisterSeller("s"); err != nil {
		b.Fatal(err)
	}
	const datasets = 64
	ids := make([]DatasetID, datasets)
	for i := range ids {
		ids[i] = DatasetID(fmt.Sprintf("d%03d", i))
		if err := m.UploadDataset("s", ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	const writers = 4
	for i := 0; i < writers; i++ {
		if err := m.RegisterBuyer(BuyerID(fmt.Sprintf("w%d", i))); err != nil {
			b.Fatal(err)
		}
	}

	// Bid storm: each writer sweeps the datasets with low bids
	// (guaranteed losers, so the storm never runs out of bids to
	// place) until the benchmark stops it. stormOps counts the
	// writers' completed operations: reads that block writers
	// depress it, so it measures the flip side of read latency.
	stop := make(chan struct{})
	done := make(chan struct{})
	var stormOps atomic.Int64
	for i := 0; i < writers; i++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			buyer := BuyerID(fmt.Sprintf("w%d", w))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Tick()
				_, _ = m.SubmitBid(buyer, ids[(n+w)%datasets], 1)
				stormOps.Add(2)
			}
		}(i)
	}

	var i atomic.Int64
	b.ResetTimer()
	stormStart := stormOps.Load()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			all := m.StatsAll()
			if len(all) != datasets {
				b.Errorf("StatsAll returned %d datasets, want %d", len(all), datasets)
				return
			}
			n := i.Add(1)
			if _, err := m.Stats(ids[int(n)%datasets]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(stormOps.Load()-stormStart)/secs, "storm-ops/s")
	}
	b.StopTimer()
	close(stop)
	for i := 0; i < writers; i++ {
		<-done
	}
}
