package command_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/torture"
)

// codec pairs one decoder with its encoder for the shared fuzz
// property.
type codec struct {
	name   string
	decode func([]byte) (command.Command, error)
	encode func(command.Command) ([]byte, error)
}

var codecs = []codec{
	{"json", command.DecodeJSON, command.EncodeJSON},
	{"binary", command.DecodeBinary, command.EncodeBinary},
}

// FuzzCommandDecode holds both codecs to their contract on arbitrary
// bytes: a decoder never panics; a failed decode wraps exactly the
// closed error set {ErrMalformed, ErrUnknownOp}; a successful decode
// re-encodes canonically and decodes back to the identical command
// (decode→encode→decode is the identity, and encode∘decode is
// idempotent on bytes), and every input the binary codec accepts is
// already its canonical encoding — so a journal record, which is the
// request's bytes as they arrived, is what re-encoding its command would
// write. And the bytes applied as they are, through
// ApplyEncoded, do exactly what DecodeBinary and Apply do: on twin
// states that know the corpus's participants and datasets, both give
// the same events, the same error text — an unknown name spelled as sent
// — and the same canonical snapshot after.
//
// The seed corpus is a torture-harness workload replay — every command
// kind under realistic persona-driven traffic plus chaos ops' hostile
// amounts and identifiers, and the same workload's settlements in their
// retired spelling — topped up with handcrafted edge encodings.
func FuzzCommandDecode(f *testing.F) {
	corpus, err := torture.CommandCorpus(1, 300)
	if err != nil {
		f.Fatal(err)
	}
	// The corpus alternates each command's JSON and binary encodings.
	var registrations []command.Command
	for i := 1; i < len(corpus); i += 2 {
		switch cmd, _ := command.DecodeBinary(corpus[i]); cmd.(type) {
		case command.RegisterBuyer, command.RegisterSeller, command.UploadDataset, command.ComposeDataset:
			registrations = append(registrations, cmd)
		}
	}
	twin := func() *command.State {
		st := command.MustNewState(command.Config{Engine: torture.DefaultEngine(), Seed: 1})
		for _, cmd := range registrations {
			_, _ = command.Apply(st, cmd) // the corpus's refusals refuse here too
		}
		return st
	}
	settles, err := torture.SettleCorpus(1, 300) // opcode 9 and op "settle", retired
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range append(corpus, settles...) {
		f.Add(b)
	}
	for _, b := range [][]byte{
		[]byte(`{"op":"tick"}`),
		[]byte(`{"op":"bid","buyer":"b00","dataset":"d000","amount":12.5}`),
		[]byte(`{"op":"bid","amount":-1e300}`),
		[]byte(`{"op":"compose","dataset":"c0","constituents":[]}`),
		[]byte(`{"op":"bid_batch","bids":[]}`),
		[]byte(`{"op":"settle","buyer":"b","dataset":"d","amount":3,"exante":true}`), // no longer an op
		[]byte(`{"op":"warp"}`),
		[]byte(`{"op":"tick"} {"op":"tick"}`),
		[]byte(`{"op":"tick","seq":1}`), // journal metadata is not a command field
		[]byte("{"),
		{},
		{0x08},       // binary tick
		{0x08, 0x00}, // binary tick + trailing byte
		{0x01, 0x03, 'b', '0', '0'},
		{0x01, 0xff},                      // length prefix beyond input
		{0x01, 0x83, 0x00, 'b', '0', '0'}, // length 3 padded to two bytes
		{0x09, 0x01, 'b', 0x01, 'd', 0, 0, 0, 0, 0, 0, 0x28, 0x40, 0x02}, // unassigned opcode 9
		{0xff},
	} {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			cmd, err := c.decode(data)
			if err != nil {
				if !errors.Is(err, command.ErrMalformed) && !errors.Is(err, command.ErrUnknownOp) {
					t.Fatalf("%s: decode error outside the closed set: %v", c.name, err)
				}
				continue
			}
			enc, err := c.encode(cmd)
			if err != nil {
				t.Fatalf("%s: decoded command %q does not re-encode: %v", c.name, cmd.Op(), err)
			}
			again, err := c.decode(enc)
			if err != nil {
				t.Fatalf("%s: canonical encoding of %q does not decode: %v", c.name, cmd.Op(), err)
			}
			if !reflect.DeepEqual(cmd, again) {
				t.Fatalf("%s: round trip changed the command:\n  first:  %#v\n  second: %#v", c.name, cmd, again)
			}
			enc2, err := c.encode(again)
			if err != nil {
				t.Fatalf("%s: re-encoding failed: %v", c.name, err)
			}
			if !reflect.DeepEqual(enc, enc2) {
				t.Fatalf("%s: encoding is not idempotent:\n  first:  %x\n  second: %x", c.name, enc, enc2)
			}
			if c.name == "binary" && !bytes.Equal(enc, data) {
				t.Fatalf("binary: accepted %x, whose canonical encoding is %x", data, enc)
			}
		}

		encoded, decoded := twin(), twin()
		got, gerr := command.ApplyEncoded(encoded, data, nil)
		cmd, werr := command.DecodeBinary(data)
		var want []command.Event
		if werr == nil {
			want, werr = command.Apply(decoded, cmd)
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("ApplyEncoded errs %v where DecodeBinary+Apply errs %v (input %x)", gerr, werr, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ApplyEncoded's events differ from DecodeBinary+Apply's (input %x):\n  encoded: %+v\n  decoded: %+v", data, got, want)
		}
		a, b := encoded.Snapshot(), decoded.Snapshot()
		if x, y := mustCanonical(t, a), mustCanonical(t, b); !bytes.Equal(x, y) {
			t.Fatalf("ApplyEncoded leaves a different state from DecodeBinary+Apply (input %x): %s", data, a.Diff(b))
		}
	})
}
