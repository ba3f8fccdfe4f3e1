package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"github.com/datamarket/shield/internal/faultfs"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// workloadOpts configures driveSeededWorkload.
type workloadOpts struct {
	ops int
	// strict makes a failed genesis fatal. Fault-injection runs turn it
	// off: there, journal errors are the point.
	strict bool
}

// driveSeededWorkload applies a deterministic mixed workload — seller
// and buyer registrations, uploads, compositions, single and batch
// bids, ticks, withdrawals — to a fresh
// journaling market writing to sink. Every random choice derives from
// seed, and the market itself is deterministic, so the same seed always
// produces the same operation sequence and the same journal bytes.
// Individual market operations may fail (waits, rebuys, withdrawn
// datasets, poisoned journals); failures are tolerated and, by the
// journal's contract, never logged.
func driveSeededWorkload(t *testing.T, cfg market.Config, seed uint64, sink io.Writer, o workloadOpts) *Market {
	t.Helper()
	m, err := NewMarket(cfg, sink)
	if err != nil {
		if o.strict {
			t.Fatalf("seed %d: genesis: %v", seed, err)
		}
		return nil
	}
	r := rng.New(seed)
	var (
		sellers             []market.SellerID
		buyers              []market.BuyerID
		datasets            []market.DatasetID
		nUploads, nComposed int
	)
	addSeller := func() {
		id := market.SellerID(fmt.Sprintf("s%d", len(sellers)))
		if m.RegisterSeller(id) == nil {
			sellers = append(sellers, id)
		}
	}
	addBuyer := func() {
		id := market.BuyerID(fmt.Sprintf("b%d", len(buyers)))
		if m.RegisterBuyer(id) == nil {
			buyers = append(buyers, id)
		}
	}
	upload := func() {
		if len(sellers) == 0 {
			return
		}
		id := market.DatasetID(fmt.Sprintf("d%d", nUploads))
		nUploads++
		if m.UploadDataset(sellers[r.Intn(len(sellers))], id) == nil {
			datasets = append(datasets, id)
		}
	}
	// Seed the market so every op kind is reachable from the start.
	addSeller()
	addBuyer()
	upload()

	for op := 0; op < o.ops; op++ {
		switch r.Intn(12) { // 11 is an idle step
		case 0:
			addSeller()
		case 1:
			addBuyer()
		case 2, 3:
			upload()
		case 4: // compose a derived dataset from two distinct existing ones
			if len(datasets) >= 2 {
				a := datasets[r.Intn(len(datasets))]
				b := datasets[r.Intn(len(datasets))]
				if a != b {
					id := market.DatasetID(fmt.Sprintf("c%d", nComposed))
					nComposed++
					if m.ComposeDataset(id, a, b) == nil {
						datasets = append(datasets, id)
					}
				}
			}
		case 5, 6, 7: // single bid
			if len(buyers) > 0 && len(datasets) > 0 {
				m.SubmitBid(buyers[r.Intn(len(buyers))],
					datasets[r.Intn(len(datasets))], r.Uniform(1, 150))
			}
		case 8: // batch bid, occasionally including a doomed entry
			if len(buyers) > 0 && len(datasets) > 0 {
				n := 2 + r.Intn(4)
				reqs := make([]market.BidRequest, 0, n)
				for i := 0; i < n; i++ {
					buyer := buyers[r.Intn(len(buyers))]
					if r.Bool(0.1) {
						buyer = "ghost" // rejected, must not be journaled
					}
					reqs = append(reqs, market.BidRequest{
						Buyer:   buyer,
						Dataset: datasets[r.Intn(len(datasets))],
						Amount:  r.Uniform(1, 150),
					})
				}
				m.SubmitBids(reqs)
			}
		case 9:
			m.Tick()
		case 10: // withdraw a base dataset (fails while composed-upon; fine)
			if len(datasets) > 0 && len(sellers) > 0 {
				m.WithdrawDataset(sellers[r.Intn(len(sellers))],
					datasets[r.Intn(len(datasets))])
			}
		}
	}
	return m
}

// recordBoundaries returns the byte offset just past each complete
// record of a journal whose first record carries firstSeq, as the record
// scanner enumerates them (frames, and JSON lines in logs begun before
// v3).
func recordBoundaries(t testing.TB, log []byte, firstSeq int64) []int {
	t.Helper()
	var bounds []int
	end := 0
	if _, _, err := ScanRecords(bytes.NewReader(log), firstSeq, func(rec Record) error {
		end += rec.Size
		bounds = append(bounds, end)
		return nil
	}); err != nil {
		t.Fatalf("enumerating record boundaries: %v", err)
	}
	return bounds
}

// TestCrashRecoveryPrefixConsistency is the crash-recovery property
// harness: for many seeds it runs the random workload, then simulates a
// crash at every record boundary and at sampled intra-record byte
// offsets, restores from the surviving prefix, and asserts the
// recovered market snapshot equals the snapshot of the longest durable
// prefix of complete records. A crash may lose the in-flight record —
// never anything acknowledged before it, and never recoverability.
func TestCrashRecoveryPrefixConsistency(t *testing.T) {
	const seeds = 24
	for s := 0; s < seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			m := driveSeededWorkload(t, testConfig(), seed, &buf,
				workloadOpts{ops: 60, strict: true})
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			log := append([]byte(nil), buf.Bytes()...)
			bounds := recordBoundaries(t, log, 1)
			if len(bounds) < 2 {
				t.Fatalf("workload produced only %d records", len(bounds))
			}
			events, err := Read(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != len(bounds) {
				t.Fatalf("parsed %d events across %d records", len(events), len(bounds))
			}
			// Reference state after each durable prefix of k complete records.
			want := make([]market.Snapshot, len(bounds)+1)
			for k := 1; k <= len(bounds); k++ {
				pm, err := Bootstrap(events[:k])
				if err != nil {
					t.Fatalf("bootstrap of %d-event prefix: %v", k, err)
				}
				want[k] = pm.Snapshot()
			}
			check := func(cut, k int, label string) {
				t.Helper()
				got, err := Restore(bytes.NewReader(log[:cut]))
				if k == 0 {
					// Not even the head survived: recovery must say so,
					// not fabricate state.
					if !errors.Is(err, ErrNoGenesis) {
						t.Fatalf("%s: want ErrNoGenesis, got %v", label, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
				if d := got.Snapshot().Diff(want[k]); d != "" {
					t.Fatalf("%s: %s", label, d)
				}
			}
			// Crash at every record boundary: all k records survive.
			for k, b := range bounds {
				check(b, k+1, fmt.Sprintf("boundary after record %d", k+1))
			}
			// Crash inside records (torn tail): record k+1 is lost, the
			// first k survive. Offsets are sampled, seeded.
			r := rng.New(seed ^ 0x9e3779b97f4a7c15)
			prev := 0
			for k, b := range bounds {
				if b-prev > 1 {
					for i := 0; i < 2; i++ {
						cut := prev + 1 + r.Intn(b-prev-1)
						check(cut, k, fmt.Sprintf("record %d torn at byte %d", k+1, cut))
					}
				}
				prev = b
			}
		})
	}
}

// TestCrashRecoveryFaultInjection kills the live write stream itself
// with seeded faultfs writers — silent truncation, torn writes, hard
// errors — instead of slicing bytes after the fact, and asserts the
// same prefix-consistency property over whatever the "disk" retained.
func TestCrashRecoveryFaultInjection(t *testing.T) {
	const seeds = 12
	for s := 0; s < seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			opts := workloadOpts{ops: 40}
			// Ground truth: the same workload against a fault-free sink.
			var clean bytes.Buffer
			m := driveSeededWorkload(t, testConfig(), seed, &clean,
				workloadOpts{ops: opts.ops, strict: true})
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			cleanLog := clean.Bytes()
			events, err := Read(bytes.NewReader(cleanLog))
			if err != nil {
				t.Fatal(err)
			}
			bounds := recordBoundaries(t, cleanLog, 1)
			for trial := 0; trial < 6; trial++ {
				var disk bytes.Buffer
				fw := faultfs.NewSeeded(&disk, seed*101+uint64(trial)+1, int64(len(cleanLog)))
				fm := driveSeededWorkload(t, testConfig(), seed, fw, opts)
				if fm != nil {
					fm.Close() // may fail: the sink is dead
				}
				durable := disk.Bytes()
				label := fmt.Sprintf("trial %d (%v fault): %d durable bytes",
					trial, fw.Kind(), len(durable))
				// The fault can only shorten the stream, never corrupt
				// or reorder what was already written.
				if !bytes.HasPrefix(cleanLog, durable) {
					t.Fatalf("%s: durable bytes are not a prefix of the fault-free log", label)
				}
				// Complete records in the surviving prefix.
				k := sort.SearchInts(bounds, len(durable)+1)
				got, err := Restore(bytes.NewReader(durable))
				if k == 0 {
					if !errors.Is(err, ErrNoGenesis) {
						t.Fatalf("%s: want ErrNoGenesis, got %v", label, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
				wantM, err := Bootstrap(events[:k])
				if err != nil {
					t.Fatalf("%s: bootstrap prefix: %v", label, err)
				}
				if d := got.Snapshot().Diff(wantM.Snapshot()); d != "" {
					t.Fatalf("%s: %s", label, d)
				}
			}
		})
	}
}

// TestShardsFieldIsInert: Config.Shards survives only because genesis
// and snapshot records carry it byte for byte. It is recorded as given
// and selects nothing: two markets that differ in nothing else write
// identical journals past the genesis record.
func TestShardsFieldIsInert(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i, shards := range []int{1, market.DefaultShards} {
		cfg := testConfig()
		cfg.Shards = shards
		m := driveSeededWorkload(t, cfg, 7, &bufs[i], workloadOpts{ops: 60, strict: true})
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.Snapshot().Config.Shards; got != shards {
			t.Fatalf("genesis recorded Shards=%d, want %d", got, shards)
		}
	}
	tail := func(b []byte) []byte { return b[recordBoundaries(t, b, 1)[0]:] }
	if !bytes.Equal(tail(bufs[0].Bytes()), tail(bufs[1].Bytes())) {
		t.Fatal("journals differ past the genesis record: Config.Shards selected something")
	}
}

// TestConcurrentAppendsSurviveFault hammers a journaling market from
// many goroutines while the sink tears mid-stream, and asserts the log
// stays well-formed: complete records in unbroken sequence plus at most
// one torn tail — never an interleaved or post-tear record. Runs under
// -race via `make ci`.
func TestConcurrentAppendsSurviveFault(t *testing.T) {
	const goroutines = 8
	var buf bytes.Buffer
	fw := faultfs.NewWriter(&buf, faultfs.Tear, 4096)
	m, err := NewMarket(testConfig(), fw)
	if err != nil {
		t.Fatal(err)
	}
	// Each goroutine gets a private dataset; buyers are shared (one bid
	// per buyer per dataset per period keeps every bid admissible).
	var buyers []market.BuyerID
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		if err := m.UploadDataset("s", market.DatasetID(fmt.Sprintf("d%d", g))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		b := market.BuyerID(fmt.Sprintf("b%d", i))
		if err := m.RegisterBuyer(b); err != nil {
			t.Fatal(err)
		}
		buyers = append(buyers, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds := market.DatasetID(fmt.Sprintf("d%d", g))
			for i, b := range buyers {
				// Journal errors are expected once the fault trips.
				m.SubmitBid(b, ds, float64(10+7*((g+i)%13)))
			}
		}(g)
	}
	wg.Wait()
	m.Close() // fails: the sink is torn; the log must still recover

	events, _, _, err := Recover(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrent crash left mid-log corruption: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no durable events")
	}
	if _, err := Bootstrap(events); err != nil {
		t.Fatalf("durable prefix does not replay: %v", err)
	}
}
