package wire

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/obs"
)

// validCodes is the closed set of error codes a wire response may
// carry; FuzzWireDecode pins that no input invents a new one.
var validCodes = map[string]bool{
	apierr.CodeDuplicateID:     true,
	apierr.CodeUnknownBuyer:    true,
	apierr.CodeUnknownSeller:   true,
	apierr.CodeUnknownDataset:  true,
	apierr.CodeBadBid:          true,
	apierr.CodeBidTooSoon:      true,
	apierr.CodeBlockedUntil:    true,
	apierr.CodeAlreadyAcquired: true,
	apierr.CodeDatasetInUse:    true,
	apierr.CodeEmptyID:         true,
	apierr.CodeUnauthorized:    true,
	apierr.CodeBadRequest:      true,
	apierr.CodeInternal:        true,
}

// handlePayload runs one request payload through handle as ServeConn
// does: its head walked first.
func handlePayload(s *Server, rc *obs.RequestCtx, payload, resp []byte, readDur time.Duration) ([]byte, *obs.Trace) {
	var h reqHead
	in := binenc.Decoder(payload)
	h.walk(in)
	return s.handle(rc, &h, in, resp, readDur)
}

// FuzzWireDecode throws arbitrary request payloads at the server's
// frame handler and pins its safety contract: it never panics, always
// produces a parseable response envelope, and every error envelope
// carries a code from the closed apierr set. Seeds cover each request
// kind, every query opcode, and each command opcode so mutation starts
// from structurally valid frames.
func FuzzWireDecode(f *testing.F) {
	seed := func(parts ...[]byte) {
		var p []byte
		for _, b := range parts {
			p = append(p, b...)
		}
		f.Add(p)
	}
	reqID := binary.AppendUvarint(nil, 9)

	// Every query opcode, with and without plausible arguments.
	for op := byte(0); op <= qTransactions+1; op++ {
		seed(reqID, []byte{kindQuery, op})
		seed(reqID, []byte{kindQuery, op}, []byte{1, 'd'})
		seed(reqID, []byte{kindQuery, op}, []byte{1, 'b', 1, 'd'})
	}

	// Every command through the real encoder.
	for _, cmd := range []command.Command{
		command.RegisterBuyer{Buyer: "b"},
		command.RegisterSeller{Seller: "s"},
		command.UploadDataset{Seller: "s", Dataset: "d"},
		command.ComposeDataset{Dataset: "c", Constituents: []command.DatasetID{"d"}},
		command.WithdrawDataset{Seller: "s", Dataset: "d"},
		command.SubmitBid{Buyer: "b", Dataset: "d", Amount: 42},
		command.BidBatch{Bids: []command.SubmitBid{{Buyer: "b", Dataset: "d", Amount: 1}}},
		command.Tick{},
	} {
		enc, err := command.EncodeBinary(cmd)
		if err != nil {
			f.Fatal(err)
		}
		seed(reqID, []byte{kindCommand}, enc)
	}
	// Opcode 9, once a settlement (buyer b, dataset d, amount 1), stays
	// unassigned: bad_request.
	seed(reqID, []byte{kindCommand, 0x09, 0x01, 'b', 0x01, 'd'}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})

	// A bid whose buyer length is padded to two bytes: decodable by a
	// lenient reader, and not the canonical encoding it would be recorded as.
	seed(reqID, []byte{kindCommand, 0x06, 0x81, 0x00, 'b', 0x01, 'd'}, make([]byte, 7), []byte{0x40})

	// Degenerate headers.
	seed(nil)
	seed([]byte{0x80}) // unterminated uvarint
	seed(reqID, []byte{0xFF})
	seed([]byte{0x81, 0x00, kindQuery, qPing})                       // request id padded
	seed(reqID, []byte{kindQuery | kindTraceFlag, 1, 't', 2, qPing}) // sampled byte 2

	m := testMarket(f)
	if err := m.RegisterSeller("s"); err != nil {
		f.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		f.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		f.Fatal(err)
	}
	s := NewServer(m)
	rc := &obs.RequestCtx{Context: context.Background()}

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, _ := handlePayload(s, rc, payload, nil, 0)
		h, r := response(resp) // the id is 0 when the header was garbage
		if r.Err() != nil {
			t.Fatalf("unparseable response envelope for %x", payload)
		}
		switch h.status {
		case statusOK:
		case statusErr:
			e := readError(r)
			if r.Done() != nil {
				t.Fatalf("unparseable error envelope for %x", payload)
			}
			if code := e.Code; !validCodes[code] {
				t.Fatalf("error code %q outside the closed set (payload %x)", code, payload)
			}
		default:
			t.Fatalf("response status %d for %x", h.status, payload)
		}
	})
}

// TestHandleBoundsBidBatchDecode: a frame-sized bid_batch whose count
// claims a bid per byte is refused for what it is — a malformed command
// — without the server allocating more than a few times the frame. The
// decoder once reserved 40 B per byte of such a frame, 40 MiB a request.
func TestHandleBoundsBidBatchDecode(t *testing.T) {
	payload := append(binary.AppendUvarint(nil, 1), kindCommand)
	n := MaxFrame - len(payload) - 4 // the opcode and a three-byte count
	payload = binary.AppendUvarint(append(payload, 0x07), uint64(n))
	payload = append(payload, make([]byte, n)...)
	s := NewServer(testMarket(t))
	rc := &obs.RequestCtx{Context: context.Background()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, _ := handlePayload(s, rc, payload, nil, 0)
	runtime.ReadMemStats(&after)
	if h, r := response(resp); h.status != statusErr || readError(r).Code != apierr.CodeBadRequest {
		t.Fatalf("response %x; want a %s envelope", resp, apierr.CodeBadRequest)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 5*uint64(len(payload)) {
		t.Fatalf("handling a %d-byte frame allocated %d bytes", len(payload), got)
	}
}
