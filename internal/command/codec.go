package command

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Codec errors. DecodeJSON and DecodeBinary return errors wrapping
// exactly one of these two sentinels — a closed set callers can switch
// on, and the property FuzzCommandDecode holds the codecs to.
var (
	// ErrMalformed reports input that is not a well-formed encoding:
	// syntax errors, unknown or missing fields, trailing data, or
	// structurally invalid commands (e.g. an empty bid batch).
	ErrMalformed = errors.New("command: malformed encoding")
	// ErrUnknownOp reports a well-formed envelope whose op is not in the
	// closed command set.
	ErrUnknownOp = errors.New("command: unknown op")
)

// wireBid is one bid inside a bid_batch envelope. Field names match the
// journal's batch entries.
type wireBid struct {
	Buyer   BuyerID   `json:"buyer"`
	Dataset DatasetID `json:"dataset"`
	Amount  float64   `json:"amount"`
}

// wire is the JSON envelope shared by every command. Encoding is
// canonical: only the fields the op defines are populated, so
// decode→encode is a normalizing round trip (fields an op does not
// define are dropped, never preserved).
type wire struct {
	Op           Op          `json:"op"`
	Buyer        BuyerID     `json:"buyer,omitempty"`
	Seller       SellerID    `json:"seller,omitempty"`
	Dataset      DatasetID   `json:"dataset,omitempty"`
	Constituents []DatasetID `json:"constituents,omitempty"`
	Amount       float64     `json:"amount,omitempty"`
	Bids         []wireBid   `json:"bids,omitempty"`
}

// EncodeJSON returns cmd's canonical JSON encoding.
func EncodeJSON(cmd Command) ([]byte, error) {
	var w wire
	switch c := cmd.(type) {
	case RegisterBuyer:
		w = wire{Op: c.Op(), Buyer: c.Buyer}
	case RegisterSeller:
		w = wire{Op: c.Op(), Seller: c.Seller}
	case UploadDataset:
		w = wire{Op: c.Op(), Seller: c.Seller, Dataset: c.Dataset}
	case ComposeDataset:
		w = wire{Op: c.Op(), Dataset: c.Dataset, Constituents: c.Constituents}
	case WithdrawDataset:
		w = wire{Op: c.Op(), Seller: c.Seller, Dataset: c.Dataset}
	case SubmitBid:
		w = wire{Op: c.Op(), Buyer: c.Buyer, Dataset: c.Dataset, Amount: c.Amount}
	case BidBatch:
		if len(c.Bids) == 0 {
			return nil, fmt.Errorf("%w: bid_batch with no bids", ErrMalformed)
		}
		w = wire{Op: c.Op(), Bids: make([]wireBid, len(c.Bids))}
		for i, b := range c.Bids {
			w.Bids[i] = wireBid{Buyer: b.Buyer, Dataset: b.Dataset, Amount: b.Amount}
		}
	case Tick:
		w = wire{Op: c.Op()}
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownOp, cmd)
	}
	return json.Marshal(w)
}

// DecodeJSON parses one JSON-encoded command. It is strict about the
// envelope — unknown fields, trailing data, and ops outside the closed
// set are errors (wrapping ErrMalformed or ErrUnknownOp) — but
// normalizing about content: fields the op does not define are dropped,
// so decoding non-canonical input and re-encoding yields the canonical
// form.
func DecodeJSON(data []byte) (Command, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wire
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after command", ErrMalformed)
	}
	return fromWire(w)
}

func fromWire(w wire) (Command, error) {
	switch w.Op {
	case OpRegisterBuyer:
		return RegisterBuyer{Buyer: w.Buyer}, nil
	case OpRegisterSeller:
		return RegisterSeller{Seller: w.Seller}, nil
	case OpUpload:
		return UploadDataset{Seller: w.Seller, Dataset: w.Dataset}, nil
	case OpCompose:
		parts := w.Constituents
		if len(parts) == 0 {
			parts = nil // canonical form: absent, not empty
		}
		return ComposeDataset{Dataset: w.Dataset, Constituents: parts}, nil
	case OpWithdraw:
		return WithdrawDataset{Seller: w.Seller, Dataset: w.Dataset}, nil
	case OpBid:
		return SubmitBid{Buyer: w.Buyer, Dataset: w.Dataset, Amount: w.Amount}, nil
	case OpBidBatch:
		if len(w.Bids) == 0 {
			return nil, fmt.Errorf("%w: bid_batch with no bids", ErrMalformed)
		}
		bids := make([]SubmitBid, len(w.Bids))
		for i, b := range w.Bids {
			bids[i] = SubmitBid{Buyer: b.Buyer, Dataset: b.Dataset, Amount: b.Amount}
		}
		return BidBatch{Bids: bids}, nil
	case OpTick:
		return Tick{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownOp, w.Op)
	}
}
