package journal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/market"
)

// These tests pin the one promise the journal makes: what replay
// rebuilds is exactly the market that served. Sixteen goroutines bid on
// ONE dataset with ticks interleaved, so nearly every command contends
// for the same engine and the same clock — the order commands are
// applied in is the order the posting price and every Time-Shield wait
// are computed in, and a log in any other order replays to a different
// market (or refuses to replay at all). Run them under -race.

const (
	hotGoroutines = 16
	hotBidsPerG   = 300
	hotBuyersPerG = 100
	hotTickEvery  = 64
)

// hotSeed registers the catalog the storm bids on: one seller, one
// dataset, and enough buyers per goroutine that most bids are accepted
// (and so logged) while each buyer still comes back twice to meet its
// own wait period or its own earlier win.
func hotSeed(t *testing.T, jm *Market) [][]market.BuyerID {
	t.Helper()
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.UploadDataset("s", "hot"); err != nil {
		t.Fatal(err)
	}
	buyers := make([][]market.BuyerID, hotGoroutines)
	for g := range buyers {
		buyers[g] = make([]market.BuyerID, hotBuyersPerG)
		for i := range buyers[g] {
			buyers[g][i] = market.BuyerID(fmt.Sprintf("b%d-%d", g, i))
			if err := jm.RegisterBuyer(buyers[g][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buyers
}

// hotStorm drives the concurrent workload: every goroutine bids on the
// one dataset, cycling through its own buyers, and ticks the shared
// clock every hotTickEvery ops. Business rejections (a buyer still
// waiting, a buyer who already won) are part of the traffic; anything
// else fails the test.
func hotStorm(t *testing.T, jm *Market, buyers [][]market.BuyerID) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < hotGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hotBidsPerG; i++ {
				if i%hotTickEvery == hotTickEvery-1 {
					if _, err := jm.Tick(); err != nil {
						t.Errorf("tick: %v", err)
						return
					}
				}
				amount := 15 + float64((g*31+i*17)%90)
				_, err := jm.SubmitBid(buyers[g][i%len(buyers[g])], "hot", amount)
				if err != nil && !isRejection(err) {
					t.Errorf("bid g%d-%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func isRejection(err error) bool {
	return errors.Is(err, market.ErrBidTooSoon) || errors.Is(err, market.ErrWaitActive) || errors.Is(err, market.ErrAlreadyAcquired)
}

func canonicalOf(t *testing.T, what string, s market.Snapshot) []byte {
	t.Helper()
	b, err := s.Canonical()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return b
}

func TestReplayMatchesLiveUnderHotDatasetConcurrency(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"group-commit", nil},
		{"group-commit-window", []Option{WithGroupCommit(100 * time.Microsecond)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var sink lockedBuffer
			jm, err := NewMarket(testConfig(), &sink, mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			hotStorm(t, jm, hotSeed(t, jm))
			if t.Failed() {
				return
			}
			restored, err := Restore(bytes.NewReader(sink.Bytes()))
			if err != nil {
				t.Fatalf("replaying the journal: %v", err)
			}
			live := jm.Snapshot()
			if !bytes.Equal(canonicalOf(t, "live", live), canonicalOf(t, "restored", restored.Snapshot())) {
				t.Fatalf("journal replay does not rebuild the live market; sections that differ: %s", live.Diff(restored.Snapshot()))
			}
		})
	}
}

// TestStoreCheckpointsMatchReplayUnderHotDatasetConcurrency is the same
// storm through a segmented store whose cadence crosses several
// checkpoints mid-storm: recovery (newest checkpoint + tail) must equal
// the live market, and every checkpoint the store keeps must equal a
// replay of the segments to its seq — a checkpoint cut at any point
// other than a committed seq, or one whose encoding read the state
// after the stage let it go, fails one of the two.
func TestStoreCheckpointsMatchReplayUnderHotDatasetConcurrency(t *testing.T) {
	dir := t.TempDir()
	sc := StoreConfig{SegmentRecords: 512, CheckpointEvery: 700, RetainSegments: -1}
	jm, _, err := OpenStore(testConfig(), dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	hotStorm(t, jm, hotSeed(t, jm))
	if t.Failed() {
		jm.Close()
		return
	}
	live := jm.Snapshot()
	seq := jm.LastSeq()
	if err := jm.Close(); err != nil { // lands the final checkpoint at seq
		t.Fatal(err)
	}

	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Checkpoints) < 2 || inv.LastCheckpoint != seq {
		t.Fatalf("store holds checkpoints %+v (newest %d); want the cadence to have crossed several and Close to land one at %d",
			inv.Checkpoints, inv.LastCheckpoint, seq)
	}
	recovered, gotSeq, _, err := RecoverDir(dir)
	if err != nil || gotSeq != seq {
		t.Fatalf("RecoverDir = seq %d, %v; want seq %d", gotSeq, err, seq)
	}
	if !bytes.Equal(canonicalOf(t, "live", live), canonicalOf(t, "recovered", recovered.Snapshot())) {
		t.Fatalf("store recovery does not rebuild the live market; sections that differ: %s", live.Diff(recovered.Snapshot()))
	}

	var events []Event
	if err := ScanDir(dir, func(_ string, e Event) error { events = append(events, e); return nil }); err != nil || int64(len(events)) != seq {
		t.Fatalf("the segments hold %d records (%v); want all %d", len(events), err, seq)
	}
	if err := ScanCheckpoints(dir, func(ci CheckpointInfo, ck market.Snapshot) error {
		replayed, err := Bootstrap(events[:ci.Seq])
		if err != nil {
			return err
		}
		if !bytes.Equal(canonicalOf(t, "checkpoint", ck), canonicalOf(t, "replayed", replayed.Snapshot())) {
			t.Errorf("checkpoint at seq %d differs from a replay of the log to it; sections that differ: %s", ci.Seq, ck.Diff(replayed.Snapshot()))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// lockedBuffer is a bytes.Buffer safe to read while a writer appends.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// gatedSink is a sink whose Write, once armed, parks on a channel: each
// parked Write announces itself on entered and goes through when it
// receives one token from release. It stands in for a disk that has
// stopped answering.
type gatedSink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *gatedSink) Write(p []byte) (int, error) {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// records counts the complete records the sink holds.
func (s *gatedSink) records(t testing.TB) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(recordBoundaries(t, s.buf.Bytes(), 1)))
}

// readings is every public read of a market, taken through the same
// methods the HTTP and wire layers call.
type readings struct {
	Stats          market.DatasetStats
	Revenue        market.Money
	TotalRevenue   market.Money
	TotalSpent     market.Money
	TotalBalances  market.Money
	Owns           bool
	BuyerSpend     market.Money
	Transactions   int
	Period         int
	WaitRemaining  int
	SellerBalance  market.Money
	SellerDatasets int
	NewcomerKnown  bool
}

// readAll takes every reading, failing the test if the lot does not
// come back promptly: no read may queue behind the commit stage.
func readAll(t *testing.T, jm *Market) readings {
	t.Helper()
	done := make(chan readings, 1)
	go func() {
		var r readings
		r.Stats, _ = jm.Stats("d")
		r.Revenue = jm.Revenue()
		r.TotalRevenue, r.TotalSpent, r.TotalBalances = jm.Totals()
		r.Owns, _ = jm.Owns("winner", "d")
		r.BuyerSpend, _ = jm.BuyerSpend("winner")
		r.Transactions = len(jm.Transactions())
		r.Period = jm.Period()
		r.WaitRemaining, _ = jm.WaitRemaining("loser", "d")
		r.SellerBalance, _ = jm.SellerBalance("s")
		ds, _ := jm.SellerDatasets("s")
		r.SellerDatasets = len(ds)
		_, err := jm.BuyerSpend("newcomer")
		r.NewcomerKnown = !errors.Is(err, market.ErrUnknownBuyer)
		done <- r
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("a read blocked behind the commit stage")
		return readings{}
	}
}

// TestNothingVisibleBeforeDurable parks a whole multi-member group
// between its apply and its write — the commands have run against the
// state machine, nothing has reached the sink — and requires every read
// to still answer, promptly, with the values from before the group; once
// the sink lets go, the same reads show the group. Throughout, LastSeq
// never exceeds the records the sink holds.
func TestNothingVisibleBeforeDurable(t *testing.T) {
	sink := newGatedSink()
	jm, err := NewMarket(testConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		jm.RegisterSeller("s"), jm.UploadDataset("s", "d"),
		jm.RegisterBuyer("winner"), jm.RegisterBuyer("loser"), jm.RegisterBuyer("first"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Group one — a single bid — parks in the sink holding the stage, so
	// everything submitted next piles into group two.
	sink.armed.Store(true)
	var wg sync.WaitGroup
	submit := func(op func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := op(); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(func() error { _, err := jm.SubmitBid("first", "d", 150); return err })
	<-sink.entered
	// Members join one at a time, so the group's order is this order.
	group := []func() error{
		func() error { _, err := jm.SubmitBid("winner", "d", 150); return err }, // a sale: books, balances, ownership
		func() error { _, err := jm.Tick(); return err },                        // the clock
		func() error { _, err := jm.SubmitBid("loser", "d", 2); return err },    // a loss: a Time-Shield wait
		func() error { return jm.UploadDataset("s", "d2") },                     // the catalog
		func() error { return jm.RegisterBuyer("newcomer") },                    // the buyer registry
	}
	for i, op := range group {
		submit(op)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			jm.w.mu.Lock()
			n := 0
			if jm.w.cur != nil {
				n = len(jm.w.cur.members)
			}
			jm.w.mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group two holds %d members, want %d", n, i+1)
			}
		}
	}
	sink.release <- struct{}{} // group one lands
	<-sink.entered             // group two: applied, encoded, parked in Write

	before := readAll(t, jm)
	if before.Transactions != 1 || before.Period != 0 || before.WaitRemaining != 0 || before.SellerDatasets != 1 || before.Owns || before.NewcomerKnown {
		t.Fatalf("reads while group two is stuck show part of it: %+v", before)
	}
	if seq, held := jm.LastSeq(), sink.records(t); seq != held {
		t.Fatalf("LastSeq %d while the sink holds %d records", seq, held)
	}
	if again := readAll(t, jm); again != before {
		t.Fatalf("reads moved while the group was stuck:\n%+v\n%+v", before, again)
	}

	sink.armed.Store(false)
	sink.release <- struct{}{}
	wg.Wait()
	after := readAll(t, jm)
	if after.Transactions != 2 || after.Period != 1 || after.SellerDatasets != 2 || !after.Owns || !after.NewcomerKnown ||
		after.BuyerSpend == 0 || after.SellerBalance != after.Revenue || after.Revenue <= before.Revenue ||
		after.WaitRemaining == 0 || after.Stats.Bids != before.Stats.Bids+2 {
		t.Fatalf("reads after the group landed do not show it:\nbefore %+v\nafter  %+v", before, after)
	}
	if seq, held := jm.LastSeq(), sink.records(t); seq != held {
		t.Fatalf("LastSeq %d, sink holds %d records", seq, held)
	}
	restored, err := Restore(bytes.NewReader(sink.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if live := jm.Snapshot(); !bytes.Equal(canonicalOf(t, "live", live), canonicalOf(t, "restored", restored.Snapshot())) {
		t.Fatalf("replay differs from live in: %s", live.Diff(restored.Snapshot()))
	}
}
