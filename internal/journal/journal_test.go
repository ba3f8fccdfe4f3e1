package journal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

func testConfig() market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed: 7,
	}
}

// driveMarket runs a deterministic mixed workload through a journaling
// market and returns the journal bytes.
func driveMarket(t *testing.T) (*Market, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	m, err := NewMarket(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s1"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s2"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s2", "b"); err != nil {
		t.Fatal(err)
	}
	if err := m.ComposeDataset("ab", "a", "b"); err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 40; i++ {
		buyer := market.BuyerID(fmt.Sprintf("buyer-%d", i))
		if err := m.RegisterBuyer(buyer); err != nil {
			t.Fatal(err)
		}
		for _, ds := range []market.DatasetID{"a", "b", "ab"} {
			if _, err := m.SubmitBid(buyer, ds, r.Uniform(1, 150)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return m, &buf
}

func TestRestoreRebuildsExactState(t *testing.T) {
	live, buf := driveMarket(t)

	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != live.Revenue() {
		t.Fatalf("revenue: restored %v, live %v", restored.Revenue(), live.Revenue())
	}
	if restored.Period() != live.Period() {
		t.Fatalf("period: restored %d, live %d", restored.Period(), live.Period())
	}
	lt, rt := live.Transactions(), restored.Transactions()
	if len(lt) != len(rt) {
		t.Fatalf("transactions: %d vs %d", len(lt), len(rt))
	}
	for i := range lt {
		if lt[i] != rt[i] {
			t.Fatalf("transaction %d: %+v vs %+v", i, lt[i], rt[i])
		}
	}
	for _, s := range []market.SellerID{"s1", "s2"} {
		lb, _ := live.SellerBalance(s)
		rb, _ := restored.SellerBalance(s)
		if lb != rb {
			t.Fatalf("balance %s: %v vs %v", s, lb, rb)
		}
	}
	// Engines continue identically after restore: next decision matches.
	ld, lerr := live.SubmitBid("buyer-0", "nonexistent", 50)
	rd, rerr := restored.SubmitBid("buyer-0", "nonexistent", 50)
	if (lerr == nil) != (rerr == nil) || ld != rd {
		t.Fatalf("post-restore divergence: %+v/%v vs %+v/%v", ld, lerr, rd, rerr)
	}
	for _, ds := range []market.DatasetID{"a", "b", "ab"} {
		ls, _ := live.Stats(ds)
		rs, _ := restored.Stats(ds)
		if ls != rs {
			t.Fatalf("stats %s: %+v vs %+v", ds, ls, rs)
		}
	}
}

func TestFailedOpsAreNotJournaled(t *testing.T) {
	var buf bytes.Buffer
	m, err := NewMarket(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	lenBefore := buf.Len()
	// Failing operations must leave the journal untouched.
	if err := m.RegisterBuyer("b"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := m.SubmitBid("b", "missing", 10); err == nil {
		t.Fatal("bid on missing dataset accepted")
	}
	if got := buf.Len(); got != lenBefore {
		t.Fatalf("journal grew on failed ops: %d -> %d bytes", lenBefore, got)
	}
	// And the journal still restores.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestReadValidation(t *testing.T) {
	_, buf := driveMarket(t)
	good := buf.String()

	// Empty log.
	if _, err := Read(strings.NewReader("")); !errors.Is(err, ErrNoGenesis) {
		t.Errorf("empty log: %v", err)
	}
	bounds := recordBoundaries(t, buf.Bytes(), 1)
	// Missing genesis: drop the first record.
	if _, err := Read(strings.NewReader(good[bounds[0]:])); err == nil {
		t.Error("headless log accepted")
	}
	// Sequence gap: drop a middle record.
	gapped := good[:bounds[4]] + good[bounds[5]:]
	if _, err := Read(strings.NewReader(gapped)); !errors.Is(err, ErrSeqGap) {
		t.Errorf("gapped log: %v", err)
	}
	// A record that is not a frame: an older build's JSON line is refused
	// by name, anything else is malformed.
	if _, err := Read(strings.NewReader(good + "{not json\n")); !errors.Is(err, ErrVersion) {
		t.Errorf("log ending in a JSON line: %v", err)
	}
	if _, err := Read(strings.NewReader(good + "junk\n")); !errors.Is(err, ErrBadEvent) {
		t.Errorf("log ending in junk: %v", err)
	}
	// Intact log round-trips.
	events, err := Read(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || events[0].Op != OpGenesis || events[0].Config.Seed != testConfig().Seed {
		t.Fatalf("read: %d events, head %+v", len(events), events[0])
	}
}

func TestWriterRules(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(Event{Op: OpTick}); !errors.Is(err, ErrNoGenesis) {
		t.Errorf("append before genesis: %v", err)
	}
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	if err := w.Genesis(testConfig()); !errors.Is(err, ErrDoubleStart) {
		t.Errorf("double genesis: %v", err)
	}
	for _, head := range []Op{OpGenesis, OpSnapshot} {
		if err := w.Append(Event{Op: head}); !errors.Is(err, ErrDoubleStart) {
			t.Errorf("appended %s: %v", head, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Op: OpTick}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	// A log whose bid references an unregistered buyer must fail replay.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Op: OpBid, Buyer: "ghost", Dataset: "d", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrReplay) {
		t.Fatalf("diverging log: %v", err)
	}
	// A record whose checksum holds but whose payload is no command.
	genesis := buf.Bytes()[:recordBoundaries(t, buf.Bytes(), 1)[0]]
	log := append(bytes.Clone(genesis), endedFrame(beginFrame(nil, 2, nil, kindCommand), 0xEE)...)
	if _, err := Restore(bytes.NewReader(log)); !errors.Is(err, ErrReplay) {
		t.Fatalf("undecodable command: %v", err)
	}
}

func TestRestoreRejectsBadGenesisConfig(t *testing.T) {
	head := `{"seq":1,"op":"genesis","v":3,"config":{"Engine":{"EpochSize":0},"Seed":1}}`
	log := endedFrame(beginFrame(nil, 1, nil, kindHead), []byte(head)...)
	if _, err := Restore(bytes.NewReader(log)); err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("invalid genesis config: %v", err)
	}
}

func TestWithdrawIsJournaled(t *testing.T) {
	var buf bytes.Buffer
	m, err := NewMarket(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := m.WithdrawDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	// Failed withdrawals are not journaled.
	before := buf.Len()
	if err := m.WithdrawDataset("s", "d"); err == nil {
		t.Fatal("double withdraw accepted")
	}
	if buf.Len() != before {
		t.Fatal("failed withdraw journaled")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range restored.Datasets() {
		if d == "d" {
			t.Fatal("withdrawn dataset survived replay")
		}
	}
}

func TestRandomOpSequencesReplayExactly(t *testing.T) {
	// Property: any sequence of successful market operations, journaled
	// and replayed, reconstructs identical books.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var buf bytes.Buffer
		m, err := NewMarket(testConfig(), &buf)
		if err != nil {
			return false
		}
		sellers := []market.SellerID{"s1", "s2"}
		for _, s := range sellers {
			if err := m.RegisterSeller(s); err != nil {
				return false
			}
		}
		var datasets []market.DatasetID
		var buyersList []market.BuyerID
		for op := 0; op < 80; op++ {
			switch r.Intn(6) {
			case 0:
				id := market.DatasetID(fmt.Sprintf("d%d", len(datasets)))
				if err := m.UploadDataset(sellers[r.Intn(2)], id); err == nil {
					datasets = append(datasets, id)
				}
			case 1:
				if len(datasets) >= 2 {
					id := market.DatasetID(fmt.Sprintf("c%d", op))
					a := datasets[r.Intn(len(datasets))]
					b := datasets[r.Intn(len(datasets))]
					if a != b {
						if err := m.ComposeDataset(id, a, b); err == nil {
							datasets = append(datasets, id)
						}
					}
				}
			case 2:
				id := market.BuyerID(fmt.Sprintf("b%d", len(buyersList)))
				if err := m.RegisterBuyer(id); err == nil {
					buyersList = append(buyersList, id)
				}
			case 3, 4:
				if len(buyersList) > 0 && len(datasets) > 0 {
					// Errors (waits, rebuys, cadence) are expected and
					// must not be journaled.
					m.SubmitBid(buyersList[r.Intn(len(buyersList))],
						datasets[r.Intn(len(datasets))], r.Uniform(1, 150))
				}
			case 5:
				if _, err := m.Tick(); err != nil {
					return false
				}
			}
		}
		if err := m.Close(); err != nil {
			return false
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if restored.Revenue() != m.Revenue() || restored.Period() != m.Period() {
			return false
		}
		lt, rt := m.Transactions(), restored.Transactions()
		if len(lt) != len(rt) {
			return false
		}
		for i := range lt {
			if lt[i] != rt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBidBatchJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m, err := NewMarket(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	for _, ds := range []market.DatasetID{"a", "b", "c"} {
		if err := m.UploadDataset("s", ds); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []market.BuyerID{"b1", "b2", "b3"} {
		if err := m.RegisterBuyer(b); err != nil {
			t.Fatal(err)
		}
	}

	// A batch mixing successes and failures: only successes are recorded.
	res := m.SubmitBids([]market.BidRequest{
		{Buyer: "b1", Dataset: "a", Amount: 60},
		{Buyer: "b2", Dataset: "b", Amount: 80},
		{Buyer: "ghost", Dataset: "a", Amount: 50}, // unknown buyer
		{Buyer: "b3", Dataset: "c", Amount: 120},
	})
	if res[0].Err != nil || res[1].Err != nil || res[3].Err != nil {
		t.Fatalf("unexpected bid errors: %+v", res)
	}
	if !errors.Is(res[2].Err, market.ErrUnknownBuyer) {
		t.Fatalf("entry 2 error = %v, want ErrUnknownBuyer", res[2].Err)
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	// A second batch after the tick keeps the clock-relative state honest.
	m.SubmitBids([]market.BidRequest{
		{Buyer: "b1", Dataset: "b", Amount: 90},
		{Buyer: "b2", Dataset: "c", Amount: 40},
	})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]BatchBid
	for _, e := range events {
		if e.Op == OpBidBatch {
			batches = append(batches, e.Bids)
		}
	}
	if len(batches) != 2 {
		t.Fatalf("journaled %d batch events, want 2", len(batches))
	}
	if len(batches[0]) != 3 {
		t.Fatalf("first batch recorded %d bids, want 3 (failed entry must be dropped)", len(batches[0]))
	}
	want := []BatchBid{
		{Buyer: "b1", Dataset: "a", Amount: 60},
		{Buyer: "b2", Dataset: "b", Amount: 80},
		{Buyer: "b3", Dataset: "c", Amount: 120},
	}
	for i, b := range batches[0] {
		if b != want[i] {
			t.Fatalf("batch entry %d = %+v, want %+v", i, b, want[i])
		}
	}

	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != m.Revenue() {
		t.Fatalf("revenue: restored %v, live %v", restored.Revenue(), m.Revenue())
	}
	lt, rt := m.Transactions(), restored.Transactions()
	if len(lt) != len(rt) {
		t.Fatalf("transactions: %d vs %d", len(lt), len(rt))
	}
	for i := range lt {
		if lt[i] != rt[i] {
			t.Fatalf("transaction %d: %+v vs %+v", i, lt[i], rt[i])
		}
	}
	for _, ds := range []market.DatasetID{"a", "b", "c"} {
		ls, _ := m.Stats(ds)
		rs, _ := restored.Stats(ds)
		if ls != rs {
			t.Fatalf("stats %s: %+v vs %+v", ds, ls, rs)
		}
	}
}

// TestBatchEdgesOfTheBytesForm pins the two ways a batch is refused
// whole on a journaled market, journaling nothing. SubmitBids encodes its
// requests as the wire would send them, so a NaN entry makes a body that
// does not decode, and every entry fails with ErrMalformed — as the same
// frame does over wire. And ApplyCtx refuses a BidBatch outright: a batch
// answers entry by entry, which only SubmitBids (or a bid_batch body
// through ApplyEncodedCtx) can.
func TestBatchEdgesOfTheBytesForm(t *testing.T) {
	m, err := NewMarket(testConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{m.RegisterSeller("s"), m.UploadDataset("s", "a"), m.RegisterBuyer("b1"), m.RegisterBuyer("b2")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := m.LastSeq()
	res := m.SubmitBids([]market.BidRequest{
		{Buyer: "b1", Dataset: "a", Amount: 60},
		{Buyer: "b2", Dataset: "a", Amount: math.NaN()},
	})
	for i, r := range res {
		if !errors.Is(r.Err, command.ErrMalformed) {
			t.Errorf("entry %d of a batch with a NaN entry: %+v, want ErrMalformed", i, r)
		}
	}
	_, err = m.ApplyCtx(context.Background(), command.BidBatch{Bids: []command.SubmitBid{{Buyer: "b1", Dataset: "a", Amount: 60}}})
	if err == nil {
		t.Error("ApplyCtx took a BidBatch")
	}
	if seq := m.LastSeq(); seq != before {
		t.Fatalf("refused batches moved the journal from seq %d to %d", before, seq)
	}
	if s, _ := m.Stats("a"); s.Bids != 0 {
		t.Fatalf("refused batches reached the engine: %+v", s)
	}
}

func TestBidBatchReplayDivergenceDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Op: OpBidBatch, Bids: []BatchBid{{Buyer: "nobody", Dataset: "nothing", Amount: 10}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay error = %v, want ErrReplay", err)
	}
}
