// The v3 record: one checksummed binary frame, and the one streaming
// reader every recovery, inspection and catch-up path goes through.
//
//	tag(1) | len u32 | crc32c u32 | seq uvarint | trace | kind(1) | payload
//
// len counts the bytes after the crc (the body); the CRC32C
// (Castagnoli) covers len and the body; integers are little-endian;
// trace is a uvarint length plus bytes. A command record's payload is
// the command's command.EncodeBinary bytes — the same bytes the
// replication stream carries — and a head record's payload is the
// genesis or snapshot Event as JSON. Logs written before v3 hold
// newline-terminated JSON Events instead; the reader refuses a record
// that opens with `{` by name (ErrVersion), and Migrate rewrites such a
// log as frames once.
//
// # Torn versus corrupt
//
// A crash leaves a prefix of what was written, so the only damage it can
// do is an incomplete final record: a frame cut short of its declared
// length. The reader drops that one record and reports it as torn;
// callers allow it only at the end of a bare log or of a store's final
// segment. Everything else no crash can produce, and it is a hard error
// carrying the expected sequence number and byte offset wherever it
// sits, the tail included: a complete frame whose checksum fails
// (ErrChecksum), a declared length above maxFrameBody, a first byte that
// does not open a frame, a body that does not parse (ErrBadEvent), a
// sequence gap (ErrSeqGap).
// One hole is left. A damaged *length* that makes a frame claim more
// bytes than the file holds looks like a torn write, and would drop
// that record and everything after it. The reader closes it for
// single-bit rot — before believing such a frame is torn it clears each
// set bit of the length in turn, and a shorter frame whose checksum then
// verifies is ErrChecksum, not a tear — but a length wrong in two or
// more bits, overrunning the file, still reads as a torn tail.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync/atomic"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
)

const (
	frameTag    = 0xF3
	frameHeader = 9 // tag + len + crc

	// maxFrameBody bounds a frame's declared length. Command records are
	// tens of bytes; the bound is sized for the snapshot head of a
	// compacted log, which embeds the whole market state.
	maxFrameBody = 256 << 20

	kindCommand byte = 1
	kindHead    byte = 2
)

// ErrChecksum marks a complete record whose stored CRC32C does not match
// its bytes: bit rot, not a crash.
var ErrChecksum = errors.New("journal: checksum mismatch")

// castagnoli returns the CRC32C table. It is fetched per use, not held
// in a package variable: the standard library builds the table on first
// request and then hands back the same one, so a process that links this
// package but never touches a journal (the simulator) does not pay for
// the table at start-up.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// skipChecksum is the bit-rot torture mode's mutation canary: when set,
// readers skip the CRC comparison, and the mode must then fail by name.
// Nothing but TestSkipChecksum sets it.
var skipChecksum atomic.Bool

// TestSkipChecksum disables (or re-enables) checksum verification
// process-wide. It exists for the torture harness's bit-rot canary;
// production code must never call it.
func TestSkipChecksum(skip bool) { skipChecksum.Store(skip) }

// CorruptError locates damage no crash can produce. Err is the sentinel
// (ErrChecksum, ErrBadEvent, ErrSeqGap, ErrStoreCorrupt); File is the
// segment or checkpoint file name, empty for a bare stream; Seq is the
// sequence number the reader expected at Offset, a byte offset into
// File.
type CorruptError struct {
	File   string
	Seq    int64
	Offset int64
	Err    error
	Detail string
}

func (e *CorruptError) Error() string {
	msg := e.Err.Error()
	if e.File != "" {
		msg += ": " + e.File
	}
	msg += fmt.Sprintf(": event %d at byte %d", e.Seq, e.Offset)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Record is one journal record as the streaming reader and the commit
// hook hand it out. Payload is the command's command.EncodeBinary
// encoding, or for a head record the genesis/snapshot Event as JSON; it
// aliases a buffer reused once the callback returns (ScanRecords' reader
// refills it), so callers that keep it copy it. Size is the frame length.
type Record struct {
	Seq     int64
	Trace   string
	Head    bool
	Payload []byte
	Size    int
}

// Event is the record's decoded view — what the log held before v3, and
// still what inspection tooling and tests read.
func (r Record) Event() (Event, error) {
	var e Event
	if r.Head {
		if err := json.Unmarshal(r.Payload, &e); err != nil {
			return Event{}, fmt.Errorf("%w: head record %d: %v", ErrBadEvent, r.Seq, err)
		}
		if e.Seq != r.Seq {
			return Event{}, fmt.Errorf("%w: head record %d claims seq %d", ErrBadEvent, r.Seq, e.Seq)
		}
		return e, nil
	}
	cmd, err := command.DecodeBinary(r.Payload)
	if err == nil {
		e, err = EventFromCommand(cmd)
	}
	if err != nil {
		return Event{}, fmt.Errorf("%w: record %d: %v", ErrBadEvent, r.Seq, err)
	}
	e.Seq, e.Trace = r.Seq, r.Trace
	return e, nil
}

// walkHead walks what a frame body holds before its payload: the
// record's sequence number, its trace and its kind. beginFrame and
// parseBody both call it.
func walkHead(c *binenc.Codec, seq *int64, trace *[]byte, kind *byte) {
	binenc.Uint(c, seq)
	binenc.Bytes(c, trace)
	if c.Byte(kind); c.Decoding() && *kind != kindCommand && *kind != kindHead {
		c.Fail("bad record kind %d", *kind)
	}
}

// beginFrame appends a frame's header (length and checksum still zero)
// and the body's head. The caller appends the payload and seals the
// frame with endFrame.
func beginFrame(dst []byte, seq int64, trace []byte, kind byte) []byte {
	c := binenc.Encoder(append(dst, frameTag, 0, 0, 0, 0, 0, 0, 0, 0))
	walkHead(c, &seq, &trace, &kind)
	return c.B
}

// endFrame fills in the length and checksum of the frame that starts at
// dst[start] and runs to the end of dst.
func endFrame(dst []byte, start int) {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-frameHeader))
	binary.LittleEndian.PutUint32(dst[start+5:], frameChecksum(dst[start+1:start+5], dst[start+frameHeader:]))
}

func frameChecksum(length, body []byte) uint32 {
	table := castagnoli()
	return crc32.Update(crc32.Checksum(length, table), table, body)
}

// ScanRecords streams a log of v3 frames record by record. fn is invoked
// once per complete record, in order, on the caller's goroutine; a
// non-nil fn error aborts the scan and is returned verbatim. The first
// record's sequence number must be firstSeq and records are contiguous
// from there (a whole-log scan passes 1, a segment scan the segment's
// base). It returns the byte length of the durable prefix — through the
// last complete record — which a caller resuming appends truncates the
// file to, and whether an incomplete trailing record was dropped; see
// "Torn versus corrupt" above for what is tolerated and what is a
// *CorruptError. ScanRecords does not validate the head.
//
// A reader goroutine frames, checksums and parses records ahead of fn,
// into three recycled batches of 64 KiB of bodies (1 024 records) or one
// bigger record each: memory is O(largest record), allocations a constant
// per scan. r is read ahead of fn, never after ScanRecords returns: on
// every path, fn's error or panic too, the reader has exited by then.
func ScanRecords(r io.Reader, firstSeq int64, fn func(Record) error) (durable int64, torn bool, err error) {
	// Each channel has room for every batch, so no send on either blocks.
	full, free := make(chan *scanBatch, scanBatches), make(chan *scanBatch, scanBatches)
	pool := new([scanBatches]scanBatch)
	for i := range pool {
		free <- &pool[i]
	}
	go readFrames(r, firstSeq, free, full)
	defer func() {
		close(free) // the reader stops at its next hand-off
		for range full {
		}
	}()
	for {
		b := <-full
		for _, rec := range b.recs {
			if ferr := fn(rec); ferr != nil {
				return 0, false, ferr
			}
		}
		if b.last {
			if b.panic != nil {
				panic(b.panic)
			}
			return b.durable, b.torn, b.err
		}
		free <- b
	}
}

// ScanRecords' batches in flight, and each one's budget of body bytes and of records.
const scanBatches, scanBatchBytes, scanBatchRecords = 3, 64 << 10, 1024

// scanBatch is one hand-off from ScanRecords' reader to fn: frame bodies
// back to back in buf, each of recs' payloads aliasing it. The reader's
// last batch carries the scan's outcome, and a panic it recovered.
type scanBatch struct {
	buf        []byte
	recs       []Record
	last, torn bool
	durable    int64
	err        error
	panic      any
}

// readFrames is ScanRecords' reader stage: the frame loop, filling
// batches taken from free and handing them on through full, which it
// closes on exit. It stops early when free is closed.
func readFrames(r io.Reader, firstSeq int64, free <-chan *scanBatch, full chan<- *scanBatch) (durable int64, torn bool, err error) {
	defer close(full)
	b := <-free
	defer func() {
		if b != nil {
			b.last, b.durable, b.torn, b.err, b.panic = true, durable, torn, err, recover()
			full <- b
		}
	}()
	br := bufio.NewReader(r) // r itself when it is already a big enough *bufio.Reader
	var (
		rec Record
		hdr [frameHeader]byte
	)
	seq := firstSeq - 1
	corrupt := func(sentinel error, format string, args ...any) error {
		return &CorruptError{Seq: seq + 1, Offset: durable, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
	}
	for {
		tag, rerr := br.ReadByte()
		if rerr == io.EOF {
			return durable, false, nil
		}
		switch {
		case rerr != nil:
		case tag == frameTag:
			if _, rerr = io.ReadFull(br, hdr[1:]); rerr != nil {
				break
			}
			n := binary.LittleEndian.Uint32(hdr[1:5])
			if n > maxFrameBody {
				return 0, false, corrupt(ErrBadEvent, "frame declares %d bytes, limit %d", n, maxFrameBody)
			}
			if len(b.recs) == cap(b.recs) || len(b.recs) > 0 && len(b.buf)+int(n) > scanBatchBytes {
				if len(b.recs) > 0 {
					full <- b
					if b = <-free; b == nil {
						return 0, false, nil // ScanRecords has returned
					}
				}
				if b.recs == nil { // a batch's first use
					b.buf, b.recs = make([]byte, 0, scanBatchBytes), make([]Record, 0, scanBatchRecords)
				}
				b.buf, b.recs = b.buf[:0], b.recs[:0]
			}
			start := len(b.buf)
			b.buf, rerr = readFull(br, b.buf, int(n))
			body := b.buf[start:] // read in place: the payload fn sees
			if rerr != nil {
				if (rerr == io.EOF || rerr == io.ErrUnexpectedEOF) && !skipChecksum.Load() && lengthRotted(hdr[:], body) {
					return 0, false, corrupt(ErrChecksum, "frame declares %d bytes, past the end of the input, and checks out one length bit shorter", n)
				}
				break
			}
			if want, got := binary.LittleEndian.Uint32(hdr[5:]), frameChecksum(hdr[1:5], body); want != got && !skipChecksum.Load() {
				return 0, false, corrupt(ErrChecksum, "stored %08x, computed %08x", want, got)
			}
			if perr := parseBody(&rec, body); perr != nil {
				return 0, false, corrupt(ErrBadEvent, "%v", perr)
			}
			rec.Size = frameHeader + len(body)
		case tag == '{': // an older build's JSON line, torn or not: no crash leaves one
			return 0, false, errNeedsMigrate(fmt.Sprintf("record %d at byte %d is a JSON line", seq+1, durable), "<file>")
		default:
			return 0, false, corrupt(ErrBadEvent, "byte %#02x does not open a frame", tag)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return durable, true, nil // the input ended inside a record
		}
		if rerr != nil {
			return 0, false, fmt.Errorf("journal: reading event %d at byte %d: %w", seq+1, durable, rerr)
		}
		if rec.Seq != seq+1 {
			return 0, false, corrupt(ErrSeqGap, "got %d", rec.Seq)
		}
		seq++
		b.recs = append(b.recs, rec)
		durable += int64(rec.Size)
	}
}

// lengthRotted tells a rotted length from a torn write, given the header
// of a frame that ran past the end of the input and the body bytes that
// were there: a write cut short leaves fewer bytes than the frame's true
// length, so no shorter length can verify; one flipped-up length bit
// leaves the whole true frame in place, and clearing that bit verifies.
func lengthRotted(hdr, got []byte) bool {
	n, sum := binary.LittleEndian.Uint32(hdr[1:5]), binary.LittleEndian.Uint32(hdr[5:])
	var length [4]byte
	for bit := uint32(1); bit != 0; bit <<= 1 {
		if short := n &^ bit; short != n && int(short) <= len(got) {
			binary.LittleEndian.PutUint32(length[:], short)
			if frameChecksum(length[:], got[:short]) == sum {
				return true
			}
		}
	}
	return false
}

// readFull appends n bytes from br to buf, growing it in bounded steps:
// a corrupt length must run into end-of-file before it is believed.
func readFull(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for end := len(buf) + n; len(buf) < end; {
		chunk := min(end-len(buf), 1<<20)
		buf = slices.Grow(buf, chunk)
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// parseBody splits a verified frame body into rec. The trace string is
// the one allocation, and only on records that carry one.
func parseBody(rec *Record, body []byte) error {
	var trace []byte
	var kind byte
	c := binenc.Decoder(body)
	if walkHead(c, &rec.Seq, &trace, &kind); c.Err() != nil {
		return c.Err()
	}
	rec.Trace = ""
	if len(trace) > 0 {
		rec.Trace = string(trace)
	}
	rec.Head, rec.Payload = kind == kindHead, c.B
	return nil
}
