package command

import (
	"fmt"
	"math"

	"github.com/datamarket/shield/internal/binenc"
)

// Binary opcode bytes, one per Op, in declaration order. The binary
// format is: opcode byte, then the op's fields in order, as its walk
// method describes them on a binenc.Codec — strings as uvarint length +
// bytes, floats as little-endian IEEE-754 bits, lists as uvarint count +
// elements, bools as one 0/1 byte. No padding, no framing: one command
// per buffer, trailing bytes are an error.
const (
	bopRegisterBuyer byte = iota + 1
	bopRegisterSeller
	bopUpload
	bopCompose
	bopWithdraw
	bopBid
	bopBidBatch
	bopTick // 9, once an ex-post settlement, stays unassigned
)

// MaxEncoded bounds the encoding of a command the market applies: its
// replication record — a type byte, the seq as a uvarint, then these
// bytes — must fit one wire frame (1 MiB), or no follower can receive it.
const MaxEncoded = 1<<20 - 16

// MaxBatchBids bounds the bids one batch request may carry, on every
// transport; larger workloads split across requests. The edges check it,
// not DecodeBinary: a store written before the cap held everywhere may
// hold larger bid_batch records, and replay must still read them.
const MaxBatchBids = 1024

// EncodeBinary returns cmd's canonical binary encoding.
func EncodeBinary(cmd Command) ([]byte, error) {
	return AppendBinary(nil, cmd)
}

// AppendBinary appends cmd's canonical binary encoding to dst and
// returns the extended slice — the encoder for callers that own a
// buffer (the journal's commit stage encodes a whole group into one).
// On error dst is returned unextended. cmd does not escape, so a caller
// holding a bid as a value boxes it on its own stack to encode it.
func AppendBinary(dst []byte, cmd Command) ([]byte, error) {
	c := binenc.Encoder(dst)
	switch v := cmd.(type) {
	case RegisterBuyer:
		v.walk(opcode(c, bopRegisterBuyer))
	case RegisterSeller:
		v.walk(opcode(c, bopRegisterSeller))
	case UploadDataset:
		v.walk(opcode(c, bopUpload))
	case ComposeDataset:
		v.walk(opcode(c, bopCompose))
	case WithdrawDataset:
		v.walk(opcode(c, bopWithdraw))
	case SubmitBid:
		v.walk(opcode(c, bopBid))
	case BidBatch:
		v.walk(opcode(c, bopBidBatch))
	case Tick:
		opcode(c, bopTick)
	default: // not one of the eight; %T would make cmd escape
		return dst, fmt.Errorf("%w: no command", ErrUnknownOp)
	}
	if err := c.Err(); err != nil {
		return dst, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return c.B, nil
}

// opcode walks a command's opcode, which its fields follow.
func opcode(c *binenc.Codec, op byte) *binenc.Codec {
	c.Byte(&op)
	return c
}

// DecodeBinary parses one binary-encoded command. Errors wrap
// ErrMalformed or ErrUnknownOp, the same closed set as DecodeJSON.
func DecodeBinary(data []byte) (Command, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrMalformed)
	}
	c := binenc.Decoder(data[1:])
	var cmd Command
	switch data[0] {
	case bopRegisterBuyer:
		cmd = RegisterBuyer{}.walk(c)
	case bopRegisterSeller:
		cmd = RegisterSeller{}.walk(c)
	case bopUpload:
		cmd = UploadDataset{}.walk(c)
	case bopCompose:
		cmd = ComposeDataset{}.walk(c)
	case bopWithdraw:
		cmd = WithdrawDataset{}.walk(c)
	case bopBid:
		cmd = SubmitBid{}.walk(c)
	case bopBidBatch:
		cmd = BidBatch{}.walk(c)
	case bopTick:
		cmd = Tick{}
	default:
		return nil, fmt.Errorf("%w: opcode %d", ErrUnknownOp, data[0])
	}
	if err := done(c); err != nil {
		return nil, err
	}
	return cmd, nil
}

// done is a decoding walk's verdict: the codec's, wrapped in ErrMalformed.
func done(c *binenc.Codec) error {
	if err := c.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return nil
}

// The walk methods describe each command's fields after its opcode, for
// AppendBinary and DecodeBinary alike: encoding, they write v's fields;
// decoding, they return v with the fields read.

func (v RegisterBuyer) walk(c *binenc.Codec) RegisterBuyer {
	binenc.Bytes(c, &v.Buyer)
	return v
}

func (v RegisterSeller) walk(c *binenc.Codec) RegisterSeller {
	binenc.Bytes(c, &v.Seller)
	return v
}

func (v UploadDataset) walk(c *binenc.Codec) UploadDataset {
	binenc.Bytes(c, &v.Seller)
	binenc.Bytes(c, &v.Dataset)
	return v
}

func (v WithdrawDataset) walk(c *binenc.Codec) WithdrawDataset {
	binenc.Bytes(c, &v.Seller)
	binenc.Bytes(c, &v.Dataset)
	return v
}

// walk: a count of constituents, each at least its length byte; none
// decodes as nil, the canonical absent form.
func (v ComposeDataset) walk(c *binenc.Codec) ComposeDataset {
	binenc.Bytes(c, &v.Dataset)
	if n := c.Len(len(v.Constituents), 1); c.Decoding() && n > 0 {
		v.Constituents = make([]DatasetID, n)
	}
	for i := range v.Constituents {
		binenc.Bytes(c, &v.Constituents[i])
	}
	return v
}

func (v SubmitBid) walk(c *binenc.Codec) SubmitBid {
	bidFields(c, &v.Buyer, &v.Dataset, &v.Amount)
	return v
}

// walk: a count of bids, never zero, each at least 10 bytes (two length
// prefixes and a float64), which bounds any claimed count.
func (v BidBatch) walk(c *binenc.Codec) BidBatch {
	n := c.Len(len(v.Bids), 10)
	if n == 0 {
		c.Fail("bid_batch with no bids")
	}
	if c.Decoding() {
		v.Bids = make([]SubmitBid, n)
	}
	for i := range v.Bids {
		b := &v.Bids[i]
		bidFields(c, &b.Buyer, &b.Dataset, &b.Amount)
	}
	return v
}

// bidFields walks the fields a bid and a bid_batch entry share: buyer,
// dataset, amount. Decoded as byte slices, the names alias the input.
func bidFields[B, D ~string | ~[]byte](c *binenc.Codec, buyer *B, dataset *D, amount *float64) {
	binenc.Bytes(c, buyer)
	binenc.Bytes(c, dataset)
	// JSON number literals cannot carry NaN or infinities, so the binary
	// codec refuses them too: every decodable command has both
	// encodings, and NaN would break command equality besides.
	if c.Float(amount); c.Decoding() && (math.IsNaN(*amount) || math.IsInf(*amount, 0)) {
		c.Fail("non-finite amount")
	}
}

// readBid reads a bid's binary encoding, its names aliasing data.
func readBid(data []byte) (buyer, dataset []byte, amount float64, err error) {
	c := binenc.Decoder(data[1:])
	bidFields(c, &buyer, &dataset, &amount)
	return buyer, dataset, amount, done(c)
}

// IsBid reports whether data encodes a bid and, if so, DecodeBinary's
// verdict on it, copying nothing.
func IsBid(data []byte) (bool, error) {
	if len(data) == 0 || data[0] != bopBid {
		return false, nil
	}
	_, _, _, err := readBid(data)
	return true, err
}

// IsBatch reports whether data's opcode is a bid_batch's.
func IsBatch(data []byte) bool { return len(data) > 0 && data[0] == bopBidBatch }
