package command_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/torture"
)

// tortureSnapshots replays a seeded torture workload — persona-driven
// bids and batches, dataset churn including withdrawals, ticks, chaos ops
// the state rejects — through the command core and returns the state's
// snapshot before the first command, at every every-th one and at the
// end.
func tortureSnapshots(t testing.TB, seed uint64, ops, every int) []command.Snapshot {
	t.Helper()
	corpus, err := torture.CommandCorpus(seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	st := command.MustNewState(command.Config{Engine: torture.DefaultEngine(), Seed: seed})
	snaps := []command.Snapshot{st.Snapshot()} // the empty market too
	for i := 1; i < len(corpus); i += 2 {      // the binary twin of each JSON entry
		cmd, err := command.DecodeBinary(corpus[i])
		if err != nil {
			t.Fatal(err)
		}
		_, _ = command.Apply(st, cmd) // rejections are part of a history
		if (i/2)%every == every-1 {
			snaps = append(snaps, st.Snapshot())
		}
	}
	return append(snaps, st.Snapshot())
}

func mustCanonical(t testing.TB, s command.Snapshot) []byte {
	t.Helper()
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// engineFloats lists every float64 an engine snapshot carries.
func engineFloats(e core.Snapshot) []float64 {
	fs := []float64{e.Config.Eta, e.Config.MinBid, e.Config.ShareFraction, e.Price, e.Revenue,
		e.Learner.Eta, e.Learner.Share, e.Learner.CumIncurred, e.Rand.Spare}
	for _, s := range [][]float64{e.Config.Candidates, e.OrigCandidates, e.Epoch, e.Learner.Values, e.Learner.Weights, e.Learner.CumCost} {
		fs = append(fs, float64(len(s)))
		fs = append(fs, s...)
	}
	return fs
}

// TestSnapshotBinaryRoundTrip: decode∘encode is the identity on what a
// state snapshots — every engine float bit for bit, nil and empty maps
// told apart by nobody — the decoded snapshot restores, and a snapshot no
// JSON could carry (NaN payloads, infinities, negative zero) survives too.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	snaps := tortureSnapshots(t, 3, 1500, 500)
	hostile := snaps[len(snaps)-1]
	hostile.Engines = map[command.DatasetID]core.Snapshot{}
	for id, e := range snaps[len(snaps)-1].Engines {
		e.Price = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
		e.Revenue = math.Copysign(0, -1)
		e.Learner.Weights = append([]float64{math.Inf(1), math.SmallestNonzeroFloat64}, e.Learner.Weights...)
		e.Rand.Spare = math.Inf(-1)
		hostile.Engines[id] = e
	}
	hostile.Buyers["nobody"] = command.BuyerSnapshot{LastBid: map[command.DatasetID]int{}} // empty, not nil

	for i, s := range append(snaps, hostile) {
		enc := mustCanonical(t, s)
		got, err := command.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if again := mustCanonical(t, got); !bytes.Equal(again, enc) {
			t.Fatalf("snapshot %d: re-encoding the decoded snapshot changed the bytes: %s", i, s.Diff(got))
		}
		if len(got.Engines) != len(s.Engines) {
			t.Fatalf("snapshot %d: %d engines decoded, want %d", i, len(got.Engines), len(s.Engines))
		}
		for id, want := range s.Engines {
			w, g := engineFloats(want), engineFloats(got.Engines[id])
			if len(w) != len(g) {
				t.Fatalf("snapshot %d engine %s: %d floats decoded, want %d", i, id, len(g), len(w))
			}
			for j := range w {
				if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
					t.Fatalf("snapshot %d engine %s: float %d decoded as %x, want %x", i, id, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
				}
			}
		}
		if i == len(snaps) { // the hostile one is not a market, and not JSON
			if bs, ok := got.Buyers["nobody"]; !ok || bs.LastBid != nil {
				t.Fatalf("empty per-buyer map decoded as %#v, want nil", bs)
			}
			continue
		}
		// Same JSON too: maps and slices come back nil or empty exactly
		// where State.Snapshot leaves them so.
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, s)) {
			t.Fatalf("snapshot %d: decoded snapshot marshals to different JSON", i)
		}
		if _, err := command.RestoreState(got); err != nil {
			t.Fatalf("snapshot %d: decoded snapshot does not restore: %v", i, err)
		}
	}
}

// snapshotMutations are single-field edits of a snapshot. Each reports
// whether it found something to edit. The last three leave the JSON
// untouched (nil against empty, under omitempty).
var snapshotMutations = []struct {
	name string
	edit func(*command.Snapshot) bool
}{
	{"clock", func(s *command.Snapshot) bool { s.Clock++; return true }},
	{"revenue", func(s *command.Snapshot) bool { s.Revenue++; return true }},
	{"config seed", func(s *command.Snapshot) bool { s.Config.Seed ^= 1 << 63; return true }},
	{"config shards", func(s *command.Snapshot) bool { s.Config.Shards = 3; return true }},
	{"config engine eta", func(s *command.Snapshot) bool { s.Config.Engine.Eta = 0.25; return true }},
	{"config engine candidate", func(s *command.Snapshot) bool {
		s.Config.Engine.Candidates[1] = math.Nextafter(s.Config.Engine.Candidates[1], 0)
		return true
	}},
	{"config engine flag", func(s *command.Snapshot) bool { s.Config.Engine.DisableWaitPeriods = true; return true }},
	{"engine price ulp", editEngine(func(e *core.Snapshot) { e.Price = math.Nextafter(e.Price, math.Inf(1)) })},
	{"engine revenue sign of zero", editEngine(func(e *core.Snapshot) { e.Revenue = math.Copysign(e.Revenue, -1) })},
	{"engine weight ulp", editEngine(func(e *core.Snapshot) {
		e.Learner.Weights[len(e.Learner.Weights)-1] = math.Nextafter(e.Learner.Weights[len(e.Learner.Weights)-1], 0)
	})},
	{"engine cum cost", editEngine(func(e *core.Snapshot) { e.Learner.CumCost[0]++ })},
	{"engine rounds", editEngine(func(e *core.Snapshot) { e.Learner.Rounds++ })},
	{"engine rng state", editEngine(func(e *core.Snapshot) { e.Rand.State++ })},
	{"engine rng spare flag", editEngine(func(e *core.Snapshot) { e.Rand.HasSpare = !e.Rand.HasSpare })},
	{"engine epoch grows", editEngine(func(e *core.Snapshot) { e.Epoch = append(e.Epoch, 1) })},
	{"engine counters", editEngine(func(e *core.Snapshot) { e.Bids, e.Allocations = e.Bids+1, e.Allocations+1 })},
	{"engine original grid", editEngine(func(e *core.Snapshot) { e.OrigCandidates[0] /= 2 })},
	{"engine rule", editEngine(func(e *core.Snapshot) { e.Config.Rule = core.DrawAdHoc })},
	{"engine dropped", func(s *command.Snapshot) bool {
		for id := range s.Engines {
			delete(s.Engines, id)
			return true
		}
		return false
	}},
	{"graph constituents reordered", func(s *command.Snapshot) bool {
		for _, ps := range s.Graph {
			if len(ps) >= 2 && ps[0] != ps[1] {
				ps[0], ps[1] = ps[1], ps[0]
				return true
			}
		}
		return false
	}},
	{"graph node added", func(s *command.Snapshot) bool { s.Graph["zz-new"] = []string{}; return true }},
	{"owner changed", func(s *command.Snapshot) bool {
		for id := range s.Owners {
			s.Owners[id] += "x"
			return true
		}
		return false
	}},
	{"seller balance", editSeller(func(ss *command.SellerSnapshot) bool { ss.Balance++; return true })},
	{"seller datasets reordered", editSeller(func(ss *command.SellerSnapshot) bool {
		if len(ss.Datasets) < 2 {
			return false
		}
		ss.Datasets[0], ss.Datasets[1] = ss.Datasets[1], ss.Datasets[0]
		return true
	})},
	{"seller dataset unknown", editSeller(func(ss *command.SellerSnapshot) bool {
		ss.Datasets = append(ss.Datasets, "withdrawn-long-ago")
		return true
	})},
	{"buyer spent", editBuyer(func(bs *command.BuyerSnapshot) bool { bs.Spent++; return true })},
	{"buyer last bid period", editBuyer(func(bs *command.BuyerSnapshot) bool {
		for id := range bs.LastBid {
			bs.LastBid[id]++
			return true
		}
		return false
	})},
	{"buyer last bid on a dataset no engine prices", editBuyer(func(bs *command.BuyerSnapshot) bool {
		if bs.LastBid == nil {
			return false
		}
		bs.LastBid["withdrawn-long-ago"] = 1
		return true
	})},
	{"buyer wait dropped", editBuyer(func(bs *command.BuyerSnapshot) bool {
		for id := range bs.BlockedUntil {
			delete(bs.BlockedUntil, id)
			return true
		}
		return false
	})},
	{"buyer acquisition false", editBuyer(func(bs *command.BuyerSnapshot) bool {
		for id := range bs.Acquired {
			bs.Acquired[id] = false
			return true
		}
		return false
	})},
	{"buyer renamed", func(s *command.Snapshot) bool {
		for id, bs := range s.Buyers {
			delete(s.Buyers, id)
			s.Buyers[id+"'"] = bs
			return true
		}
		return false
	}},
	{"transaction price", editTx(func(tx *command.Transaction) { tx.Price++ })},
	{"transaction period", editTx(func(tx *command.Transaction) { tx.Period++ })},
	{"transaction seq", editTx(func(tx *command.Transaction) { tx.Seq += 1000 })},
	{"transaction buyer unknown", editTx(func(tx *command.Transaction) { tx.Buyer = "ghost" })},
	{"transaction dataset unknown", editTx(func(tx *command.Transaction) { tx.Dataset = "withdrawn-long-ago" })},
	{"transaction dropped", func(s *command.Snapshot) bool {
		if len(s.Transactions) == 0 {
			return false
		}
		s.Transactions = s.Transactions[1:]
		return true
	}},
	{"empty transactions for none", func(s *command.Snapshot) bool {
		if len(s.Transactions) != 0 {
			return false
		}
		s.Transactions = []command.Transaction{}
		return true
	}},
	{"empty per-buyer map for none", editBuyer(func(bs *command.BuyerSnapshot) bool {
		if bs.Acquired != nil {
			return false
		}
		bs.Acquired = map[command.DatasetID]bool{}
		return true
	})},
	{"empty seller datasets for none", editSeller(func(ss *command.SellerSnapshot) bool {
		if len(ss.Datasets) != 0 {
			return false
		}
		ss.Datasets = []command.DatasetID{}
		return true
	})},
}

func editEngine(edit func(*core.Snapshot)) func(*command.Snapshot) bool {
	return func(s *command.Snapshot) bool {
		for id, e := range s.Engines {
			edit(&e)
			s.Engines[id] = e
			return true
		}
		return false
	}
}

func editSeller(edit func(*command.SellerSnapshot) bool) func(*command.Snapshot) bool {
	return func(s *command.Snapshot) bool {
		for id, ss := range s.Sellers {
			if edit(&ss) {
				s.Sellers[id] = ss
				return true
			}
		}
		return false
	}
}

func editBuyer(edit func(*command.BuyerSnapshot) bool) func(*command.Snapshot) bool {
	return func(s *command.Snapshot) bool {
		for id, bs := range s.Buyers {
			if edit(&bs) {
				s.Buyers[id] = bs
				return true
			}
		}
		return false
	}
}

func editTx(edit func(*command.Transaction)) func(*command.Snapshot) bool {
	return func(s *command.Snapshot) bool {
		if len(s.Transactions) == 0 {
			return false
		}
		edit(&s.Transactions[len(s.Transactions)/2])
		return true
	}
}

// TestSnapshotBinaryMatchesJSON keeps json.Marshal — what Canonical was —
// as the reference for what "the same state" means: over seeded torture
// histories, any two snapshots of one history and every single-field
// mutation of each, the binary encodings are equal exactly when the JSON
// encodings are.
func TestSnapshotBinaryMatchesJSON(t *testing.T) {
	seeds := []uint64{1, 2, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	applied := map[string]int{}
	for _, seed := range seeds {
		snaps := tortureSnapshots(t, seed, 2000, 400)
		type encoded struct{ json, bin []byte }
		encs := make([]encoded, len(snaps))
		for i, s := range snaps {
			encs[i] = encoded{mustJSON(t, s), mustCanonical(t, s)}
			for j := 0; j < i; j++ {
				if je, be := bytes.Equal(encs[i].json, encs[j].json), bytes.Equal(encs[i].bin, encs[j].bin); je != be {
					t.Fatalf("seed %d: snapshots %d and %d: JSON equal %v, binary equal %v", seed, j, i, je, be)
				}
			}
			for _, mut := range snapshotMutations {
				// A deep copy by way of the reference encoding.
				var c command.Snapshot
				if err := json.Unmarshal(encs[i].json, &c); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustCanonical(t, c), encs[i].bin) {
					t.Fatalf("seed %d snapshot %d: a JSON round trip changed the binary encoding: %s", seed, i, s.Diff(c))
				}
				if !mut.edit(&c) {
					continue
				}
				applied[mut.name]++
				je, be := bytes.Equal(mustJSON(t, c), encs[i].json), bytes.Equal(mustCanonical(t, c), encs[i].bin)
				if je != be {
					t.Fatalf("seed %d snapshot %d, mutation %q: JSON equal %v, binary equal %v", seed, i, mut.name, je, be)
				}
				if be != (s.Diff(c) == "") {
					t.Fatalf("seed %d snapshot %d, mutation %q: Diff says %q", seed, i, mut.name, s.Diff(c))
				}
			}
		}
	}
	for _, mut := range snapshotMutations {
		if applied[mut.name] == 0 {
			t.Errorf("mutation %q never found anything to edit: the histories are too tame", mut.name)
		}
	}
}

// TestSnapshotDiffNamesSections: Diff still says where two snapshots
// part, by the names the JSON sections had.
func TestSnapshotDiffNamesSections(t *testing.T) {
	a := drive(t).Snapshot()
	b := drive(t).Snapshot()
	if d := a.Diff(b); d != "" {
		t.Fatalf("identical snapshots differ: %q", d)
	}
	b.Clock++
	b.Transactions[0].Price++
	for id, bs := range b.Buyers {
		bs.Spent++
		b.Buyers[id] = bs
	}
	if d := a.Diff(b); d != "snapshots differ in: buyers, clock, transactions" {
		t.Fatalf("Diff = %q", d)
	}
}

// TestSnapshotDecodeBoundsCounts: a count the remaining bytes cannot
// hold is refused where it is read — nothing is allocated for it — and
// so is every truncation of a valid encoding.
func TestSnapshotDecodeBoundsCounts(t *testing.T) {
	enc := mustCanonical(t, drive(t).Snapshot())
	huge := binary.AppendUvarint([]byte{enc[0]}, 1<<50) // the config's candidate count
	huge = append(huge, enc[2:]...)
	if _, err := command.DecodeSnapshot(huge); !errors.Is(err, binenc.ErrMalformed) {
		t.Fatalf("a 2^50-candidate snapshot: %v, want ErrMalformed", err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := command.DecodeSnapshot(enc[:n]); !errors.Is(err, binenc.ErrMalformed) {
			t.Fatalf("truncated to %d of %d bytes: %v, want ErrMalformed", n, len(enc), err)
		}
	}
	if _, err := command.DecodeSnapshot(append(bytes.Clone(enc), 0)); !errors.Is(err, binenc.ErrMalformed) {
		t.Fatalf("a trailing byte: %v, want ErrMalformed", err)
	}
	if _, err := command.DecodeSnapshot(mustJSON(t, drive(t).Snapshot())); !errors.Is(err, binenc.ErrMalformed) {
		t.Fatalf("a JSON snapshot: %v, want ErrMalformed", err)
	}
}

// FuzzSnapshotDecode holds DecodeSnapshot to its contract on arbitrary
// bytes: it never panics, every failure wraps binenc.ErrMalformed, a
// count larger than the bytes left never becomes an allocation (the
// fuzzer's memory limit is the witness), and whatever it accepts
// re-encodes to the very bytes it was given — there is one encoding per
// state, and the decoder takes no other — and so does the state
// RestoreState builds from it, when it is a market at all: whatever keys
// a buyer's three maps held, each gets its own back, and every engine
// keeps its configuration as recorded, unset defaults included. The
// state's cut streams those very bytes too: the checkpoint path and the
// tree agree. A restored clock is below MaxPeriod.
func FuzzSnapshotDecode(f *testing.F) {
	var s command.Snapshot
	for _, s = range tortureSnapshots(f, 1, 600, 200) {
		enc := mustCanonical(f, s)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flipped := bytes.Clone(enc)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	for id, es := range s.Engines { // recorded with every default unset
		es.Config.Eta, es.Config.BidsPerPeriod, es.Config.MaxWaitEpochs, es.Config.AdHocNeighborhood = 0, 0, 0, 0
		s.Engines[id] = es
	}
	f.Add(mustCanonical(f, s))
	// A buyer blocked on a dataset it has no bid on: a record that only
	// the BlockedUntil map names, which no live history makes.
	first := slices.Sorted(maps.Keys(s.Buyers))[0]
	bs := s.Buyers[first]
	bs.BlockedUntil = maps.Clone(bs.BlockedUntil)
	bs.BlockedUntil["only-blocked"] = 9
	s.Buyers[first] = bs
	f.Add(mustCanonical(f, s))
	f.Add(mustCanonical(f, unorderedPeriods(s)))
	for _, past := range periodsPastInt32(s, first) { // each decodes; RestoreState refuses it
		f.Add(mustCanonical(f, past))
	}
	// A log numbered 1, 3, …: it decodes, and RestoreState must refuse it,
	// for the state numbers a sale by its position.
	s.Transactions = slices.Clone(s.Transactions)
	s.Transactions[1].Seq++
	f.Add(mustCanonical(f, s))
	f.Add(mustCanonical(f, command.Snapshot{}))
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := command.DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, binenc.ErrMalformed) {
				t.Fatalf("decode error outside the closed set: %v", err)
			}
			return
		}
		if enc := mustCanonical(t, s); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(enc))
		}
		if st, err := command.RestoreState(s); err == nil {
			if st.Period() >= command.MaxPeriod {
				t.Fatalf("restored a clock at %d, which no tick reaches", st.Period())
			}
			var cut bytes.Buffer
			if err := st.Cut().WriteCanonical(&cut); err != nil || !bytes.Equal(cut.Bytes(), data) {
				t.Fatalf("restored and cut: WriteCanonical wrote %d bytes (%v) that differ from the %d given", cut.Len(), err, len(data))
			}
			if again := st.Snapshot(); !bytes.Equal(mustCanonical(t, again), data) {
				t.Fatalf("restored and re-snapshotted: %s", s.Diff(again))
			}
		}
	})
}

// periodsPastInt32 returns three edits of s, each holding one period no
// state can: the clock at MaxPeriod, then buyer's last bid at 2³¹ and
// its wait ending at −2³¹−1 on a dataset named "past-int32".
func periodsPastInt32(s command.Snapshot, buyer command.BuyerID) []command.Snapshot {
	var out []command.Snapshot
	for _, edit := range []func(*command.Snapshot, *command.BuyerSnapshot){
		func(s *command.Snapshot, _ *command.BuyerSnapshot) { s.Clock = command.MaxPeriod },
		func(_ *command.Snapshot, bs *command.BuyerSnapshot) { bs.LastBid["past-int32"] = 1 << 31 },
		func(_ *command.Snapshot, bs *command.BuyerSnapshot) { bs.BlockedUntil["past-int32"] = -1<<31 - 1 },
	} {
		past, bs := s, s.Buyers[buyer]
		past.Buyers, bs.LastBid, bs.BlockedUntil = maps.Clone(s.Buyers), maps.Clone(bs.LastBid), maps.Clone(bs.BlockedUntil)
		edit(&past, &bs)
		past.Buyers[buyer] = bs
		out = append(out, past)
	}
	return out
}

// TestRestoreRefusesPeriodsPastInt32: RestoreState refuses a clock at
// MaxPeriod, and a buyer's period outside int32 naming the buyer, the
// dataset and the map, where a record would narrow it.
func TestRestoreRefusesPeriodsPastInt32(t *testing.T) {
	s := drive(t).Snapshot()
	buyer := slices.Sorted(maps.Keys(s.Buyers))[0]
	if _, err := command.RestoreState(s); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		"clock 2147483647",
		"buyer " + string(buyer) + " dataset past-int32: LastBid 2147483648",
		"buyer " + string(buyer) + " dataset past-int32: BlockedUntil -2147483649",
	} {
		if _, err := command.RestoreState(periodsPastInt32(s, buyer)[i]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("edit %d: RestoreState = %v, want an error naming %q", i, err, want)
		}
	}
}

// unorderedPeriods returns s with its sales' periods going down as well
// as up, one period repeated apart and others repeated in a row: no Apply
// logs them so, but a snapshot may hold them.
func unorderedPeriods(s command.Snapshot) command.Snapshot {
	s.Transactions = slices.Clone(s.Transactions)
	for i := range s.Transactions {
		s.Transactions[i].Period = [...]int{4, 2, 2, 9, 2, 0, 0, 7}[i%8]
	}
	return s
}

// TestSalePeriodsInAnyOrderRoundTrip: the state's run table keeps a log
// whose periods come in any order sale for sale. RestoreState → Cut →
// WriteCanonical gives back the bytes restored, the tree agrees, and the
// log spells every sale's period, read at random or walked.
func TestSalePeriodsInAnyOrderRoundTrip(t *testing.T) {
	snaps := tortureSnapshots(t, 1, 600, 600)
	s := unorderedPeriods(snaps[len(snaps)-1])
	if len(s.Transactions) < 16 {
		t.Fatalf("the history made %d sales: too few to cover the periods twice", len(s.Transactions))
	}
	want := mustCanonical(t, s)
	st, err := command.RestoreState(s)
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	if err := st.Cut().WriteCanonical(&cut); err != nil || !bytes.Equal(cut.Bytes(), want) {
		t.Fatalf("restored and cut: WriteCanonical wrote %d bytes (%v) that differ from the %d restored", cut.Len(), err, len(want))
	}
	if again := st.Snapshot(); !bytes.Equal(mustCanonical(t, again), want) {
		t.Fatalf("restored and re-snapshotted: %s", s.Diff(again))
	}
	log := st.TxLog(st.TxCount())
	for i, tx := range s.Transactions {
		if got := log.At(i); got != tx {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, tx)
		}
	}
	if got := log.Append(nil); !slices.Equal(got, s.Transactions) {
		t.Fatalf("Append spells %d sales that differ from the %d restored", len(got), len(s.Transactions))
	}
}
