package market

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

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

// populate registers seller "s" with the given number of datasets, and
// the given number of buyers, named as the repository benchmark names
// them; it returns the ids.
func populate(tb testing.TB, m *Market, buyers, datasets int) ([]BuyerID, []DatasetID) {
	tb.Helper()
	if err := m.RegisterSeller("s"); err != nil {
		tb.Fatal(err)
	}
	bs, ds := make([]BuyerID, buyers), make([]DatasetID, datasets)
	for i := range ds {
		ds[i] = DatasetID(fmt.Sprintf("ds-%03d", i))
		if err := m.UploadDataset("s", ds[i]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range bs {
		bs[i] = BuyerID(fmt.Sprintf("buyer-%04d", i))
		if err := m.RegisterBuyer(bs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return bs, ds
}

// TestScrapeDoesNotCopyTheLog: shield_market_transactions_total counts
// the sales, it does not fetch them. A scrape of a market with 10 000
// sales on its books must allocate less than those 10 000 transactions
// occupy — it read 1.1× the log, one defensive copy per scrape, while the
// collector called len(m.Transactions()).
func TestScrapeDoesNotCopyTheLog(t *testing.T) {
	const buyers, datasets = 1000, 10
	tel := obs.NewTelemetry()
	m := MustNew(benchConfig())
	m.Instrument(tel)
	bs, ds := populate(t, m, buyers, datasets)
	for _, b := range bs {
		for _, d := range ds {
			// Above the grid's top candidate: every bid wins.
			if dec, err := m.SubmitBid(b, d, 150); err != nil || !dec.Allocated {
				t.Fatalf("bid by %s on %s: %+v, %v; want a win", b, d, dec, err)
			}
		}
	}
	if n := m.TxCount(); n != buyers*datasets {
		t.Fatalf("TxCount = %d, want %d", n, buyers*datasets)
	}
	logBytes := uint64(buyers * datasets * int(unsafe.Sizeof(Transaction{})))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tel.Registry.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= logBytes {
		t.Fatalf("one scrape allocated %d B over a transaction log of %d B: it copies the log to count it", got, logBytes)
	} else {
		t.Logf("one scrape allocated %d B; the log holds %d B", got, logBytes)
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
