package market

import (
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/obs"
)

func benchConfig() Config {
	return Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     8,
			BidsPerPeriod: 1000,
			MinBid:        1,
		},
		Seed:   42,
		Shards: 8,
	}
}

// runBids drives n bid attempts through a losing-bid/tick loop. Engines
// are deterministic in their seeds, so the instrumented and
// uninstrumented variants execute the identical operation sequence —
// the only difference is the telemetry hot path.
func runBids(tb testing.TB, m *Market, n int) []Decision {
	tb.Helper()
	out := make([]Decision, 0, n)
	for i := 0; i < n; i++ {
		for {
			d, err := m.SubmitBid("b", "d", 5)
			if err == nil {
				out = append(out, d)
				break
			}
			m.Tick()
		}
		m.Tick()
	}
	return out
}

func setupBenchMarket(tb testing.TB, instrument bool) *Market {
	tb.Helper()
	m := MustNew(benchConfig())
	if instrument {
		m.Instrument(obs.NewTelemetry())
	}
	for _, err := range []error{
		m.RegisterSeller("s"),
		m.UploadDataset("s", "d"),
		m.RegisterBuyer("b"),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// TestInstrumentationPreservesDecisions: telemetry must be an observer,
// never an actor — the same bid sequence yields bit-identical decisions
// with and without instruments bound.
func TestInstrumentationPreservesDecisions(t *testing.T) {
	plain := runBids(t, setupBenchMarket(t, false), 200)
	instr := runBids(t, setupBenchMarket(t, true), 200)
	if len(plain) != len(instr) {
		t.Fatalf("decision counts differ: %d vs %d", len(plain), len(instr))
	}
	for i := range plain {
		if plain[i] != instr[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, plain[i], instr[i])
		}
	}
}

// BenchmarkBidUninstrumented is the baseline for the telemetry overhead
// guard; compare with BenchmarkBidInstrumented (see EXPERIMENTS.md).
func BenchmarkBidUninstrumented(b *testing.B) {
	m := setupBenchMarket(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	runBids(b, m, b.N)
}

// BenchmarkBidInstrumented is the same workload with the full metric
// set bound (the apply and publish stage histograms on the bid path). The delta against BenchmarkBidUninstrumented is the per-bid
// cost of telemetry.
func BenchmarkBidInstrumented(b *testing.B) {
	m := setupBenchMarket(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	runBids(b, m, b.N)
}
