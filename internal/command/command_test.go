package command_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
)

func testConfig() command.Config {
	return command.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed: 7,
	}
}

// allCommands is one instance of every command in the closed set.
func allCommands() []command.Command {
	return []command.Command{
		command.RegisterBuyer{Buyer: "alice"},
		command.RegisterSeller{Seller: "acme"},
		command.UploadDataset{Seller: "acme", Dataset: "weather"},
		command.ComposeDataset{Dataset: "w+t", Constituents: []command.DatasetID{"weather", "traffic"}},
		command.WithdrawDataset{Seller: "acme", Dataset: "weather"},
		command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 55.25},
		command.BidBatch{Bids: []command.SubmitBid{
			{Buyer: "alice", Dataset: "weather", Amount: 55},
			{Buyer: "bob", Dataset: "traffic", Amount: 70.5},
		}},
		command.Tick{},
	}
}

func TestCodecRoundTripsEveryCommand(t *testing.T) {
	for _, cmd := range allCommands() {
		for _, c := range codecs {
			enc, err := c.encode(cmd)
			if err != nil {
				t.Fatalf("%s: encode %q: %v", c.name, cmd.Op(), err)
			}
			got, err := c.decode(enc)
			if err != nil {
				t.Fatalf("%s: decode %q: %v", c.name, cmd.Op(), err)
			}
			if !reflect.DeepEqual(cmd, got) {
				t.Errorf("%s: %q round trip changed the command:\n  in:  %#v\n  out: %#v", c.name, cmd.Op(), cmd, got)
			}
		}
	}
}

func TestJSONEncodingIsCanonical(t *testing.T) {
	enc, err := command.EncodeJSON(command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 55})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"op":"bid","buyer":"alice","dataset":"weather","amount":55}`
	if string(enc) != want {
		t.Errorf("canonical bid encoding %s, want %s", enc, want)
	}
	// Non-canonical input (fields the op does not define) normalizes.
	cmd, err := command.DecodeJSON([]byte(`{"op":"tick","buyer":"alice","amount":3}`))
	if err != nil {
		t.Fatal(err)
	}
	enc, err = command.EncodeJSON(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != `{"op":"tick"}` {
		t.Errorf("tick with stray fields re-encoded as %s, want {\"op\":\"tick\"}", enc)
	}
}

func TestDecodeErrorsAreClosedSet(t *testing.T) {
	cases := []struct {
		name   string
		decode func([]byte) (command.Command, error)
		data   []byte
		want   error
	}{
		{"json syntax", command.DecodeJSON, []byte("{"), command.ErrMalformed},
		{"json unknown field", command.DecodeJSON, []byte(`{"op":"tick","bogus":1}`), command.ErrMalformed},
		{"json trailing data", command.DecodeJSON, []byte(`{"op":"tick"}{"op":"tick"}`), command.ErrMalformed},
		{"json empty batch", command.DecodeJSON, []byte(`{"op":"bid_batch"}`), command.ErrMalformed},
		{"json unknown op", command.DecodeJSON, []byte(`{"op":"warp"}`), command.ErrUnknownOp},
		{"binary empty", command.DecodeBinary, nil, command.ErrMalformed},
		{"binary unknown opcode", command.DecodeBinary, []byte{0xff}, command.ErrUnknownOp},
		{"binary truncated string", command.DecodeBinary, []byte{0x01, 0x05, 'a'}, command.ErrMalformed},
		{"binary trailing bytes", command.DecodeBinary, []byte{0x08, 0x00}, command.ErrMalformed},
		{"binary empty batch", command.DecodeBinary, []byte{0x07, 0x00}, command.ErrMalformed},
		{"binary opcode 9 unassigned", command.DecodeBinary, append([]byte{0x09, 0x01, 'b', 0x01, 'd'},
			0, 0, 0, 0, 0, 0, 0x28, 0x40, 1), command.ErrUnknownOp},
		{"binary nan amount", command.DecodeBinary, append([]byte{0x06, 0x01, 'b', 0x01, 'd'},
			0, 0, 0, 0, 0, 0, 0xf8, 0x7f), command.ErrMalformed},
	}
	for _, tc := range cases {
		_, err := tc.decode(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// bidPerByte is a bid_batch of size bytes whose count claims a bid for
// every byte after it: hostile, and the largest a wire frame can carry.
func bidPerByte(size int) []byte {
	n := size - 4 // the opcode and a three-byte count
	return append(binary.AppendUvarint([]byte{0x07}, uint64(n)), make([]byte, n)...)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBidBatchDecodeIsBounded: a bid_batch's count is held to the ten
// bytes a bid takes at least before anything is reserved for it, so no
// input makes the decoder allocate more than a few times its own size.
// Bounded by the bytes left alone, a 1 MiB batch claiming a bid per byte
// reserved 41 944 912 B before failing as truncated.
func TestBidBatchDecodeIsBounded(t *testing.T) {
	data := bidPerByte(1 << 20)
	var err error
	got := allocated(func() { _, err = command.DecodeBinary(data) })
	if !errors.Is(err, command.ErrMalformed) {
		t.Fatalf("a batch claiming %d bids: %v, want ErrMalformed", len(data)-4, err)
	}
	if got > 5*uint64(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
}

// drive applies a small mixed history and returns the state.
func drive(t *testing.T) *command.State {
	t.Helper()
	st := command.MustNewState(testConfig())
	for _, cmd := range []command.Command{
		command.RegisterSeller{Seller: "acme"},
		command.RegisterSeller{Seller: "globex"},
		command.UploadDataset{Seller: "acme", Dataset: "weather"},
		command.UploadDataset{Seller: "globex", Dataset: "traffic"},
		command.ComposeDataset{Dataset: "w+t", Constituents: []command.DatasetID{"weather", "traffic"}},
		command.RegisterBuyer{Buyer: "alice"},
		command.RegisterBuyer{Buyer: "bob"},
		command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 55},
		command.Tick{},
		command.BidBatch{Bids: []command.SubmitBid{
			{Buyer: "bob", Dataset: "traffic", Amount: 70},
			{Buyer: "alice", Dataset: "w+t", Amount: 130},
		}},
		command.Tick{},
		command.SubmitBid{Buyer: "bob", Dataset: "weather", Amount: 95},
	} {
		if _, err := command.Apply(st, cmd); err != nil {
			t.Fatalf("apply %q: %v", cmd.Op(), err)
		}
	}
	return st
}

func TestApplyIsDeterministic(t *testing.T) {
	a, err := drive(t).Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := drive(t).Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical command sequences produced different canonical snapshots")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	st := drive(t)
	snap := st.Snapshot()
	restored, err := command.RestoreState(snap)
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("restore did not reproduce the snapshot")
	}
	// The restored state keeps evolving identically.
	if _, err := command.Apply(st, command.Tick{}); err != nil {
		t.Fatal(err)
	}
	if _, err := command.Apply(restored, command.Tick{}); err != nil {
		t.Fatal(err)
	}
	a, _ = st.Snapshot().Canonical()
	b, _ = restored.Snapshot().Canonical()
	if !bytes.Equal(a, b) {
		t.Error("restored state diverged from the original after one tick")
	}
}

func TestApplyErrors(t *testing.T) {
	st := drive(t)
	cases := []struct {
		name string
		cmd  command.Command
		want error
	}{
		{"unknown buyer", command.SubmitBid{Buyer: "ghost", Dataset: "weather", Amount: 10}, command.ErrUnknownBuyer},
		{"unknown dataset", command.SubmitBid{Buyer: "alice", Dataset: "ghost", Amount: 10}, command.ErrUnknownDataset},
		{"bad amount", command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: -1}, command.ErrBadBid},
		{"NaN amount", command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: math.NaN()}, command.ErrMalformed},
		{"+Inf amount", command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: math.Inf(1)}, command.ErrMalformed},
		{"-Inf amount", command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: math.Inf(-1)}, command.ErrMalformed},
		{"duplicate buyer", command.RegisterBuyer{Buyer: "alice"}, command.ErrDuplicateID},
		{"duplicate seller", command.RegisterSeller{Seller: "acme"}, command.ErrDuplicateID},
		{"upload by unknown seller", command.UploadDataset{Seller: "ghost", Dataset: "fresh"}, command.ErrUnknownSeller},
		{"withdraw by non-owner", command.WithdrawDataset{Seller: "globex", Dataset: "weather"}, command.ErrUnknownSeller},
		{"withdraw dataset in use", command.WithdrawDataset{Seller: "acme", Dataset: "weather"}, command.ErrDatasetInUse},
	}
	for _, tc := range cases {
		if _, err := command.Apply(st, tc.cmd); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestApplyErrorStrings pins a few exact messages: the torture
// differential compares replica errors to reference errors by full
// string, so the formats are contract, not cosmetics.
func TestApplyErrorStrings(t *testing.T) {
	st := drive(t)
	_, err := command.Apply(st, command.SubmitBid{Buyer: "ghost", Dataset: "weather", Amount: 10})
	if got := err.Error(); got != "market: unknown buyer: ghost" {
		t.Errorf("unknown buyer message %q", got)
	}
	_, err = command.Apply(st, command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 10})
	if got := err.Error(); got != "market: buyer already owns this dataset: weather" {
		t.Errorf("acquired message %q", got)
	}
}

func TestBidBatchStopsAtFirstError(t *testing.T) {
	st := drive(t)
	evs, err := command.Apply(st, command.BidBatch{Bids: []command.SubmitBid{
		{Buyer: "bob", Dataset: "w+t", Amount: 80},
		{Buyer: "ghost", Dataset: "weather", Amount: 60},
		{Buyer: "bob", Dataset: "traffic", Amount: 75},
	}})
	if !errors.Is(err, command.ErrUnknownBuyer) {
		t.Fatalf("batch error %v, want ErrUnknownBuyer", err)
	}
	if len(evs) != 1 {
		t.Fatalf("batch produced %d events before failing, want 1", len(evs))
	}
}

func TestApplyEvents(t *testing.T) {
	st := command.MustNewState(testConfig())
	evs, err := command.Apply(st, command.RegisterBuyer{Buyer: "alice"})
	if err != nil || len(evs) != 1 || evs[0].Kind != command.EvBuyerRegistered {
		t.Fatalf("register buyer events %+v (%v)", evs, err)
	}
	evs, err = command.Apply(st, command.Tick{})
	if err != nil || len(evs) != 1 || evs[0].Kind != command.EvTicked || evs[0].Period != 1 {
		t.Fatalf("tick events %+v (%v)", evs, err)
	}
}
