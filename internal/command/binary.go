package command

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary opcode bytes, one per Op, in declaration order. The binary
// format is: opcode byte, then the op's fields in order — strings as
// uvarint length + bytes, floats as little-endian IEEE-754 bits, lists
// as uvarint count + elements, bools as one 0/1 byte. No padding, no
// framing: one command per buffer, trailing bytes are an error.
const (
	bopRegisterBuyer byte = iota + 1
	bopRegisterSeller
	bopUpload
	bopCompose
	bopWithdraw
	bopBid
	bopBidBatch
	bopTick
	bopSettle
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
	b := dst
	switch c := cmd.(type) {
	case RegisterBuyer:
		b = append(b, bopRegisterBuyer)
		b = appendString(b, string(c.Buyer))
	case RegisterSeller:
		b = append(b, bopRegisterSeller)
		b = appendString(b, string(c.Seller))
	case UploadDataset:
		b = append(b, bopUpload)
		b = appendString(b, string(c.Seller))
		b = appendString(b, string(c.Dataset))
	case ComposeDataset:
		b = append(b, bopCompose)
		b = appendString(b, string(c.Dataset))
		b = binary.AppendUvarint(b, uint64(len(c.Constituents)))
		for _, p := range c.Constituents {
			b = appendString(b, string(p))
		}
	case WithdrawDataset:
		b = append(b, bopWithdraw)
		b = appendString(b, string(c.Seller))
		b = appendString(b, string(c.Dataset))
	case SubmitBid:
		b = appendBid(append(b, bopBid), c)
	case BidBatch:
		if len(c.Bids) == 0 {
			return dst, fmt.Errorf("%w: bid_batch with no bids", ErrMalformed)
		}
		b = append(b, bopBidBatch)
		b = binary.AppendUvarint(b, uint64(len(c.Bids)))
		for _, bid := range c.Bids {
			b = appendBid(b, bid)
		}
	case Tick:
		b = append(b, bopTick)
	case Settle:
		b = append(b, bopSettle)
		b = appendBid(b, SubmitBid{Buyer: c.Buyer, Dataset: c.Dataset, Amount: c.Amount})
		if c.Exante {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	default: // not one of the nine; %T would make cmd escape
		return dst, fmt.Errorf("%w: no command", ErrUnknownOp)
	}
	return b, nil
}

// appendBid writes the fields a bid, a bid_batch entry and a settlement
// share — buyer, dataset, amount; binReader.bid reads them back.
func appendBid(b []byte, c SubmitBid) []byte {
	b = appendString(b, string(c.Buyer))
	b = appendString(b, string(c.Dataset))
	return appendFloat(b, c.Amount)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// binReader cursors over one encoded command. Every read is bounded by
// the remaining input, so a corrupted length prefix fails cleanly
// instead of attempting a giant allocation.
type binReader struct {
	data []byte
	err  error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated binary command", ErrMalformed)
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	// A padded uvarint (a final 0 byte after the first) spells a value
	// binary.AppendUvarint writes shorter; refusing it makes every
	// decodable command its own canonical encoding.
	if n <= 0 || n > 1 && r.data[n-1] == 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// bytes reads a length-prefixed string, aliasing the input.
func (r *binReader) bytes() []byte {
	if n := r.uvarint(); r.err == nil && n <= uint64(len(r.data)) {
		s := r.data[:n:n]
		r.data = r.data[n:]
		return s
	}
	r.fail()
	return nil
}

// bid reads the fields appendBid writes; the names alias the input.
func (r *binReader) bid() (buyer, dataset []byte, amount float64) {
	return r.bytes(), r.bytes(), r.float()
}

// end is the reader's verdict once a command's fields are read: the
// first failure, or an error for input left over.
func (r *binReader) end() error {
	if r.err == nil && len(r.data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.data))
	}
	return r.err
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	// JSON number literals cannot carry NaN or infinities, so the binary
	// codec rejects them too: every decodable command has both
	// encodings, and NaN would break command equality besides.
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: non-finite float", ErrMalformed)
		}
		return 0
	}
	return f
}

func (r *binReader) boolByte() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.fail()
		return false
	}
	v := r.data[0]
	r.data = r.data[1:]
	if v > 1 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: bool byte %d", ErrMalformed, v)
		}
		return false
	}
	return v == 1
}

// DecodeBinary parses one binary-encoded command. Errors wrap
// ErrMalformed or ErrUnknownOp, the same closed set as DecodeJSON.
func DecodeBinary(data []byte) (Command, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrMalformed)
	}
	r := &binReader{data: data[1:]}
	var cmd Command
	switch data[0] {
	case bopRegisterBuyer:
		cmd = RegisterBuyer{Buyer: BuyerID(r.bytes())}
	case bopRegisterSeller:
		cmd = RegisterSeller{Seller: SellerID(r.bytes())}
	case bopUpload:
		cmd = UploadDataset{Seller: SellerID(r.bytes()), Dataset: DatasetID(r.bytes())}
	case bopCompose:
		c := ComposeDataset{Dataset: DatasetID(r.bytes())}
		n := r.uvarint()
		// Each constituent needs at least one length byte, so a count
		// beyond the remaining bytes is unsatisfiable — reject before
		// allocating for it.
		if n > uint64(len(r.data)) {
			r.fail()
		} else if n > 0 { // leave nil for zero, the canonical absent form
			c.Constituents = make([]DatasetID, 0, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				c.Constituents = append(c.Constituents, DatasetID(r.bytes()))
			}
		}
		cmd = c
	case bopWithdraw:
		cmd = WithdrawDataset{Seller: SellerID(r.bytes()), Dataset: DatasetID(r.bytes())}
	case bopBid:
		buyer, dataset, amount := r.bid()
		cmd = SubmitBid{Buyer: BuyerID(buyer), Dataset: DatasetID(dataset), Amount: amount}
	case bopBidBatch:
		n := r.uvarint()
		if n == 0 && r.err == nil {
			return nil, fmt.Errorf("%w: bid_batch with no bids", ErrMalformed)
		}
		// Each bid occupies at least 10 bytes (two length prefixes plus
		// a float64), bounding any claimed count.
		if n > uint64(len(r.data)/10) {
			r.fail()
		}
		var c BidBatch
		if r.err == nil {
			c.Bids = make([]SubmitBid, 0, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				buyer, dataset, amount := r.bid()
				c.Bids = append(c.Bids, SubmitBid{Buyer: BuyerID(buyer), Dataset: DatasetID(dataset), Amount: amount})
			}
		}
		cmd = c
	case bopTick:
		cmd = Tick{}
	case bopSettle:
		buyer, dataset, amount := r.bid()
		cmd = Settle{Buyer: BuyerID(buyer), Dataset: DatasetID(dataset), Amount: amount, Exante: r.boolByte()}
	default:
		return nil, fmt.Errorf("%w: opcode %d", ErrUnknownOp, data[0])
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// IsBid reports whether data encodes a bid and, if so, DecodeBinary's
// verdict on it, copying nothing.
func IsBid(data []byte) (bool, error) {
	if len(data) == 0 || data[0] != bopBid {
		return false, nil
	}
	r := binReader{data: data[1:]}
	r.bid()
	return true, r.end()
}

// IsBatch reports whether data's opcode is a bid_batch's.
func IsBatch(data []byte) bool { return len(data) > 0 && data[0] == bopBidBatch }
