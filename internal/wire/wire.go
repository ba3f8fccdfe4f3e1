// Package wire is the market's binary transport: length-prefixed,
// version-stamped frames over one persistent connection, carrying the
// command core's canonical binary encodings (command.EncodeBinary)
// straight into Market.Apply with none of HTTP's per-request framing,
// header parsing, or JSON marshalling.
//
// # Protocol
//
// A connection opens with a 4-byte handshake in each direction: the
// client sends the 3-byte magic "SHW" plus the highest protocol version
// it speaks; the server answers with the same magic plus Version (3) to
// any hello of at least 3, and with version 0 (followed by close) to an
// older one. There is one grammar: a peer that cannot speak v3 is
// refused by name.
//
// After the handshake the stream is a sequence of frames in each
// direction. A frame is a uint32 little-endian payload length (at least
// 1, at most MaxFrame) followed by that many payload bytes.
//
// A request payload is:
//
//	request id (uvarint) | kind (1 byte) | [trace] | body
//
// where kind's low bits are kindCommand (1, body is one
// command.EncodeBinary encoding) or kindQuery (2, body is a query
// opcode byte followed by its arguments). The kind byte may carry the
// kindTraceFlag bit (0x80): the optional trace field then sits between
// kind and body —
//
//	trace id (uvarint-length string) | sampled (1 byte, 0 or 1)
//
// — propagating the caller's request ID and sampling decision so the
// server journals the same trace ID the client logged and continues a
// sampled trace across the process boundary. Requests without a trace
// context omit the field entirely. A response payload is:
//
//	request id (uvarint, echoed) | status (1 byte) | body
//
// with status statusOK (0, body is the result whose shape the request
// kind determines) or statusErr (1, body is an error envelope: code
// then message, both uvarint-length-prefixed strings, the code drawn
// from the same closed set internal/apierr defines for the HTTP API and
// the root package re-exports as shield.ErrCode*).
//
// A third request kind, kindReplicate (3), converts the connection into
// a one-way replication stream; see replicate.go for the stream grammar,
// catch-up semantics, and the follower-facing client API.
//
// Every head and body is one walk on a binenc.Codec (reqHead, respHead,
// walkError, walkDecision, ...) that the side writing it and the side
// reading it both call, in the command codec's conventions: strings are
// uvarint length + bytes, floats are little-endian IEEE-754 bits, money
// is the int64 micro count as little-endian uint64, counters and
// sequence numbers are uvarints, flags are one byte, 0 or 1. Decoding
// refuses any other spelling — a padded varint, a flag byte above 1 — so
// what a peer accepts is exactly what its encoder writes.
//
// # Pipelining
//
// Requests on one connection execute strictly in order and responses
// are written in the same order, so a client may stream any number of
// frames before reading the first response; request ids exist so a
// pipelining client can match responses without counting. One goroutine
// serves a connection: it reads a frame, executes it, buffers the
// response, and flushes when its input is drained (nothing more is
// buffered from the socket) — requests that arrived together cost one
// write, a lone request is answered at once. Nothing queues frames ahead
// of execution: read-ahead is bounded by the kernel socket buffer plus
// the 64 KiB read buffer, and past that TCP flow control pushes back.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/market"
)

// Version is the one protocol version this package speaks. A client
// offering a newer one is answered Version; an older one is refused.
const Version byte = 3

// MaxFrame bounds a frame's payload length in both directions. It
// comfortably exceeds the largest legitimate frame (a multi-thousand-bid
// batch or a long transaction log) while keeping a hostile length prefix
// from provoking a giant allocation.
const MaxFrame = apierr.MaxRequest

// MaxSnapshotFrame bounds the one oversized frame in the protocol: the
// replication subscribe response, which may embed a full market
// snapshot. Only that single response frame gets this limit; every
// other frame in both directions stays under MaxFrame.
const MaxSnapshotFrame = 64 << 20

// magic opens the handshake in both directions.
var magic = [3]byte{'S', 'H', 'W'}

// Request kinds. The high bit of the kind byte is the trace flag; the
// low bits select the kind.
const (
	kindCommand byte = 1
	kindQuery   byte = 2
	// kindReplicate converts the connection into a replication stream;
	// its body is the subscriber's last applied sequence number as a
	// uvarint. See replicate.go.
	kindReplicate byte = 3

	// kindTraceFlag marks a request carrying the optional trace field
	// (trace id + sampled bit) between the kind byte and the body.
	kindTraceFlag byte = 0x80
)

// Response statuses.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// Query opcodes. Queries are reads: they bypass the command codec (reads
// are not commands and are never journaled) and address the market's
// lock-free views directly.
const (
	qPing         byte = 1
	qPeriod       byte = 2
	qDatasets     byte = 3
	qStats        byte = 4
	qBalance      byte = 5
	qWait         byte = 6
	qTransactions byte = 7
)

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrConnClosed reports a client connection whose stream has failed —
// the server closed it (shutdown, crash, mid-pipeline hangup), an I/O
// deadline expired, or the response stream desynchronized. Every call
// on the connection from the first failure on, including calls already
// queued behind the failing one, returns an error wrapping this
// sentinel (and, when a context deadline or cancellation caused the
// failure, that context's error too): the connection must be closed
// and redialed.
var ErrConnClosed = errors.New("wire: connection unusable")

// ErrHandshake reports a malformed or version-incompatible handshake.
var ErrHandshake = errors.New("wire: handshake failed")

// writeFrame writes one length-prefixed frame whose payload is at most
// limit bytes — MaxFrame for every frame but the replication subscribe
// response (MaxSnapshotFrame) — building the prefix in the writer's own
// spare buffer, so a frame allocates nothing. The caller flushes.
func writeFrame(w *bufio.Writer, payload []byte, limit int) error {
	if len(payload) == 0 || len(payload) > limit {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame's payload of at most limit bytes into buf,
// reusing its storage when large enough, so a long-lived connection
// keeps one buffer: the next call overwrites the returned slice, and
// nothing may hold a sub-slice of it. A zero or oversized length prefix
// is a protocol error that poisons the stream; the caller must close
// the connection.
func readFrame(r *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	n, err := readFrameLen(r, limit)
	if err != nil {
		return nil, err
	}
	return readFrameBody(r, buf, n)
}

// readFrameLen is the first half of readFrame: it blocks for a length
// prefix — peeked in the reader's buffer (never under bufio's 16-byte
// floor), not copied out — and checks it against limit. A stream ending
// on a frame boundary reports io.EOF, inside the prefix ErrUnexpectedEOF.
func readFrameLen(r *bufio.Reader, limit int) (int, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > uint32(limit) {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	_, err = r.Discard(4)
	return int(n), err
}

// readFrameBody is the second half of readFrame: the n payload bytes.
func readFrameBody(r *bufio.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- heads and bodies ---
//
// Each is walked once on a binenc.Codec, by the side that writes it and
// the side that reads it alike.

// reqHead opens every request: its id, its kind, and — when the kind
// carries kindTraceFlag — the trace field.
type reqHead struct {
	id      uint64
	kind    byte
	trace   string
	sampled bool
}

func (h *reqHead) walk(c *binenc.Codec) {
	c.Uvarint(&h.id)
	c.Byte(&h.kind)
	if h.kind&kindTraceFlag != 0 {
		binenc.Bytes(c, &h.trace)
		c.Bool(&h.sampled)
	}
}

// respHead opens every response: the request's id, echoed, and the
// status.
type respHead struct {
	id     uint64
	status byte
}

func (h *respHead) walk(c *binenc.Codec) {
	c.Uvarint(&h.id)
	c.Byte(&h.status)
}

// walkError walks an error envelope: the code, from the closed apierr
// set, then the message. Encoding, *err is classified, unless it is an
// *apierr.APIError already; decoded, it is an *apierr.APIError whose
// Error() is the server-side error's exact message.
func walkError(c *binenc.Codec, err *error) {
	var e apierr.APIError
	if !c.Decoding() {
		e.Code, _ = apierr.Classify(*err)
		e.Message = (*err).Error()
	}
	binenc.Bytes(c, &e.Code)
	binenc.Bytes(c, &e.Message)
	if c.Decoding() {
		*err = &apierr.APIError{Code: e.Code, Message: e.Message}
	}
}

// walkDecision walks a bid's result body.
func walkDecision(c *binenc.Codec, d *market.Decision) {
	c.Bool(&d.Allocated)
	binenc.Fixed(c, &d.PricePaid)
	binenc.Uint(c, &d.WaitPeriods)
}

// walkResults walks a batch's result body: a count, then per bid a
// status byte and its decision or its error envelope.
func walkResults(c *binenc.Codec, res *[]market.BidResult) {
	if n := c.Len(len(*res), 1); c.Decoding() {
		*res = make([]market.BidResult, n)
	}
	for i := range *res {
		r := &(*res)[i]
		status := statusOK
		if r.Err != nil {
			status = statusErr
		}
		switch c.Byte(&status); status {
		case statusOK:
			walkDecision(c, &r.Decision)
		case statusErr:
			walkError(c, &r.Err)
		default:
			c.Fail("batch entry status %d", status)
		}
	}
}

// query is a query request's body: the opcode, then the arguments it
// takes.
type query struct {
	op      byte
	buyer   market.BuyerID
	seller  market.SellerID
	dataset market.DatasetID
}

func (q *query) walk(c *binenc.Codec) {
	switch c.Byte(&q.op); q.op {
	case qStats:
		binenc.Bytes(c, &q.dataset)
	case qBalance:
		binenc.Bytes(c, &q.seller)
	case qWait:
		binenc.Bytes(c, &q.buyer)
		binenc.Bytes(c, &q.dataset)
	}
}

// walkDatasets walks the datasets result: a count, then each id.
func walkDatasets(c *binenc.Codec, ids *[]market.DatasetID) {
	if n := c.Len(len(*ids), 1); c.Decoding() {
		*ids = make([]market.DatasetID, n)
	}
	for i := range *ids {
		binenc.Bytes(c, &(*ids)[i])
	}
}

// walkStats walks the stats result.
func walkStats(c *binenc.Codec, st *market.DatasetStats) {
	binenc.Bytes(c, &st.Dataset)
	binenc.Uint(c, &st.Bids)
	binenc.Uint(c, &st.Allocations)
	binenc.Uint(c, &st.Epochs)
	c.Float(&st.Revenue)
	c.Float(&st.PostingPrice)
	c.Float(&st.MostLikelyPrice)
}

// walkTransactions walks the transactions result: a count, then each
// sale in at least 12 bytes.
func walkTransactions(c *binenc.Codec, txs *[]market.Transaction) {
	if n := c.Len(len(*txs), 12); c.Decoding() {
		*txs = make([]market.Transaction, n)
	}
	for i := range *txs {
		tx := &(*txs)[i]
		binenc.Uint(c, &tx.Seq)
		binenc.Bytes(c, &tx.Buyer)
		binenc.Bytes(c, &tx.Dataset)
		binenc.Fixed(c, &tx.Price)
		binenc.Uint(c, &tx.Period)
	}
}
