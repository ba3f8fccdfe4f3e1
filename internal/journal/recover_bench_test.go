package journal

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// buildRecoverStore writes, with checkpoints off, the store the
// repository benchmark's store_recover workload recovers at its full
// length, and returns how many records a recovery replays.
func buildRecoverStore(b *testing.B, dir string) int {
	b.Helper()
	jm := servingMarket(b, dir, 24000)
	records := int(jm.LastSeq())
	if err := jm.Close(); err != nil {
		b.Fatal(err)
	}
	return records
}

// servingMarket opens a store in dir, with checkpoints off, holding the
// repository benchmark's market: marketd's engine (40 candidates over
// [1, 200], epochs of 8, floor 1), 64 datasets, 4 096 buyers, and ops
// writes — a Tick every 512th, otherwise a Normal(100, 30) bid walking
// the (buyer, dataset) pairs.
func servingMarket(b *testing.B, dir string, ops int) *Market {
	b.Helper()
	const datasets, buyers, tickEvery = 64, 4096, 512
	cfg := market.Config{
		Engine: core.Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1, MinBid: 1},
		Seed:   3109,
	}
	jm, _, err := OpenStore(cfg, dir, StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
	if err != nil {
		b.Fatal(err)
	}
	err = jm.RegisterSeller("seller")
	for d := 0; err == nil && d < datasets; d++ {
		err = jm.UploadDataset("seller", market.DatasetID(fmt.Sprintf("ds-%03d", d)))
	}
	for k := 0; err == nil && k < buyers; k++ {
		err = jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("buyer-%04d", k)))
	}
	r := rng.New(3109)
	for i, bids := 0, 0; err == nil && i < ops; i++ {
		if i%tickEvery == tickEvery-1 {
			_, err = jm.Tick()
			continue
		}
		k := bids % buyers
		_, err = jm.SubmitBid(market.BuyerID(fmt.Sprintf("buyer-%04d", k)),
			market.DatasetID(fmt.Sprintf("ds-%03d", (k+bids/buyers)%datasets)), math.Max(1, r.Normal(100, 30)))
		bids++
		if errors.Is(err, market.ErrWaitActive) || errors.Is(err, market.ErrBidTooSoon) || errors.Is(err, market.ErrAlreadyAcquired) {
			err = nil
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	return jm
}

// BenchmarkRecoverDir is one cold RecoverDir of buildRecoverStore's store
// per iteration: the store_recover workload's op without the benchmark
// harness, so
//
//	go test -run xxx -bench RecoverDir -cpuprofile cpu.out ./internal/journal/
//
// profiles it in one command (-memprofile for what it allocates), and
// allocs/record is the count store_recover reports as allocs_per_op.
func BenchmarkRecoverDir(b *testing.B) {
	dir := b.TempDir()
	records := buildRecoverStore(b, dir)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, replayed, err := RecoverDir(dir); err != nil || replayed != records {
			b.Fatalf("RecoverDir replayed %d of %d records: %v", replayed, records, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N*records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*records), "allocs/record")
}

// BenchmarkScanRecords reads buildRecoverStore's store as RecoverDir
// does, segment by segment, with an fn that does nothing: the reader
// stage's own ceiling — framing, checksums, head parses — to set beside
// BenchmarkRecoverDir's, which applies each record as well.
//
//	go test -run xxx -bench 'RecoverDir$|ScanRecords$' -cpuprofile cpu.out ./internal/journal/
func BenchmarkScanRecords(b *testing.B) {
	dir := b.TempDir()
	records := buildRecoverStore(b, dir)
	l, err := listStoreDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanned := 0
		for _, idx := range l.segIdx {
			head, _, err := readSegHead(dir, idx)
			if err == nil {
				_, _, err = scanSegment(dir, idx, head.Base, func(Record) error { scanned++; return nil })
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if scanned != records {
			b.Fatalf("scanned %d of %d records", scanned, records)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N*records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*records), "allocs/record")
}

// BenchmarkCheckpointCapture is what a due checkpoint holds the commit
// stage for, on the market wire_bid_durable ends with (150 000 writes):
// cut is the capture the stage takes now, tree the snapshot tree it
// took before — the one-command profile of the checkpoint stall.
func BenchmarkCheckpointCapture(b *testing.B) {
	jm := servingMarket(b, b.TempDir(), 150_000)
	defer jm.Close()
	live := jm.Market.Stage()
	for _, c := range []struct {
		name    string
		capture func()
	}{
		{"cut", func() { live.Lock(); live.Cut(); live.Unlock() }},
		{"tree", func() { jm.Snapshot() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.capture()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/capture")
		})
	}
}
