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
// Scalars reuse the command codec's conventions: strings are uvarint
// length + bytes, floats are little-endian IEEE-754 bits, money is the
// int64 micro count as little-endian uint64, counters are uvarints.
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
	"math"
)

// Version is the one protocol version this package speaks. A client
// offering a newer one is answered Version; an older one is refused.
const Version byte = 3

// MaxFrame bounds a frame's payload length in both directions. It
// comfortably exceeds the largest legitimate frame (a multi-thousand-bid
// batch or a long transaction log) while keeping a hostile length prefix
// from provoking a giant allocation.
const MaxFrame = 1 << 20

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

// --- scalar codec (the command binary codec's conventions) ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// errTruncated is the closed parse error for wire payloads.
var errTruncated = errors.New("wire: truncated payload")

// payloadReader cursors over one frame payload. Every read is bounded
// by the remaining input, mirroring the command codec's binReader: a
// corrupted length never provokes a large allocation, and the first
// failure sticks.
type payloadReader struct {
	data []byte
	err  error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 1 {
		r.fail()
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.fail()
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

func (r *payloadReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return f
}

func (r *payloadReader) int64() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// rest returns the unconsumed remainder of the payload.
func (r *payloadReader) rest() []byte { return r.data }

// done reports whether the payload parsed cleanly to its end.
func (r *payloadReader) done() bool { return r.err == nil && len(r.data) == 0 }
