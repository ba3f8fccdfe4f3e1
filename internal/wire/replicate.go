package wire

// Replication stream.
//
// A follower opens an ordinary connection, handshakes, and sends one
// kindReplicate request:
//
//	request id (uvarint) | kindReplicate (1 byte) | afterSeq (uvarint)
//
// where afterSeq is the journal sequence number the follower has
// applied through (0 for an empty follower). The response decides the
// catch-up mode:
//
//	request id | statusOK | mode (1 byte) | startSeq (uvarint) | [snapshot]
//
// mode 1 (snapshot catch-up): the body carries the leader's canonical
// market snapshot (command.Snapshot.Canonical's bytes — opaque here; a
// leader older than that codec sends the snapshot as JSON, which the
// follower refuses) representing the state after startSeq; the follower
// restores it and resumes from there. This is the one frame in the
// protocol allowed past MaxFrame, bounded by MaxSnapshotFrame. mode 0
// (tail catch-up): no snapshot; startSeq echoes afterSeq and the missed
// records stream as ordinary record frames. A statusErr envelope
// (closed apierr code set) means the subscription was refused —
// replication not enabled, the follower claims a seq ahead of the
// leader, or the snapshot does not fit MaxSnapshotFrame.
//
// After the response the stream is one-way, server to client, framed
// exactly like every other frame:
//
//	record:    repRecord (1 byte)    | seq (uvarint) | command.EncodeBinary bytes
//	heartbeat: repHeartbeat (1 byte) | leader seq (uvarint)
//
// Records carry strictly consecutive sequence numbers starting at
// startSeq+1 — the follower rejects anything else (ErrReplicaSeq)
// rather than guessing, because a gap or repeat means the stream can
// no longer prove state equality. Heartbeats flow during write silence
// so the follower can measure staleness against the leader's seq even
// when no commands commit. The subscriber sends nothing after the
// request; any client frame on an established stream is a protocol
// error and closes the connection. A follower that falls too far
// behind the source's buffer is dropped (its channel closes) and is
// expected to redial and catch up from a fresh snapshot.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/binenc"
)

// Replication stream frame types.
const (
	repRecord    byte = 1
	repHeartbeat byte = 2
)

// DefaultHeartbeat is how often an idle replication stream emits a
// leader-seq heartbeat unless the server overrides it.
const DefaultHeartbeat = 250 * time.Millisecond

// Closed decode error set for replication frames. Every failure of
// DecodeReplicationFrame wraps exactly one of these.
var (
	// ErrReplicaPayload reports a malformed replication frame: unknown
	// frame type or truncated header — or, from the follower, a record
	// body that does not decode.
	ErrReplicaPayload = errors.New("wire: malformed replication frame")
	// ErrReplicaSeq reports a sequencing violation: a record whose seq
	// is not exactly the follower's last applied seq + 1 (duplicates and
	// reorders both land here), or a heartbeat claiming the leader is
	// behind the follower.
	ErrReplicaSeq = errors.New("wire: replication sequence violation")
)

// RepRecord is one pre-encoded record a ReplicationSource hands the
// server: Payload is the complete record frame payload (repRecord type
// byte, seq, command bytes), encoded once and fanned out to every
// subscriber.
type RepRecord struct {
	Seq     int64
	Payload []byte
}

// RepFrame is one decoded replication stream frame. For records, Seq
// is the record's journal sequence number and Payload the command's
// command.EncodeBinary bytes as received, undecoded — the follower
// applies them as recovery applies a record's (they alias the frame
// buffer: a ReplicationStream reuses it on the next call to Next); for
// heartbeats, Seq is the leader's current sequence number and Payload
// is nil.
type RepFrame struct {
	Heartbeat bool
	Seq       int64
	Payload   []byte
}

// Subscription is an attached replication consumer. Snapshot (nil in
// tail mode) is the leader's canonical state through StartSeq; Records
// delivers every record after StartSeq in order until Cancel is called
// or the source drops the subscriber (channel close) for falling
// behind.
type Subscription struct {
	Snapshot []byte
	StartSeq int64
	Records  <-chan RepRecord
	Cancel   func()
}

// ReplicationSource is the leader-side feed the wire server streams
// from; internal/replica.Feed implements it over the journal's commit
// hook.
type ReplicationSource interface {
	// Subscribe attaches a consumer that has applied the log through
	// afterSeq. The source decides tail versus snapshot catch-up; it
	// must refuse (error) an afterSeq ahead of its own history.
	Subscribe(afterSeq int64) (Subscription, error)
	// LeaderSeq is the newest committed sequence number, for heartbeats.
	LeaderSeq() int64
}

// frameHead opens every stream frame: its type, then a sequence number —
// a record's own, or the leader's in a heartbeat.
type frameHead struct {
	typ byte
	seq int64
}

func (h *frameHead) walk(c *binenc.Codec) {
	c.Byte(&h.typ)
	binenc.Uint(c, &h.seq)
}

// subHead opens a subscribe response's body: whether a snapshot follows
// (mode 1) or not (mode 0), and the seq the stream starts from.
type subHead struct {
	snapshot bool
	start    int64
}

func (h *subHead) walk(c *binenc.Codec) {
	c.Bool(&h.snapshot)
	binenc.Uint(c, &h.start)
}

// AppendRecordFrame appends a record frame payload: cmd must be a
// command.EncodeBinary encoding.
func AppendRecordFrame(b []byte, seq int64, cmd []byte) []byte {
	c := binenc.Encoder(b)
	h := frameHead{typ: repRecord, seq: seq}
	h.walk(c)
	return append(c.B, cmd...)
}

// AppendHeartbeatFrame appends a heartbeat frame payload.
func AppendHeartbeatFrame(b []byte, leaderSeq int64) []byte {
	c := binenc.Encoder(b)
	h := frameHead{typ: repHeartbeat, seq: leaderSeq}
	h.walk(c)
	return c.B
}

// DecodeReplicationFrame decodes one replication stream frame payload
// against the follower's last applied sequence number. It never
// panics, and every rejection wraps one of the closed error set:
// ErrReplicaPayload for a malformed frame head (a record's body is the
// follower's to decode, as it applies it), ErrReplicaSeq for records
// that are not exactly lastSeq+1 (out-of-order, duplicate, or gapped)
// and for heartbeats placing the leader behind the follower.
func DecodeReplicationFrame(payload []byte, lastSeq int64) (RepFrame, error) {
	var h frameHead
	c := binenc.Decoder(payload)
	h.walk(c)
	switch {
	case len(payload) == 0:
		return RepFrame{}, fmt.Errorf("%w: empty frame", ErrReplicaPayload)
	case h.typ != repRecord && h.typ != repHeartbeat:
		return RepFrame{}, fmt.Errorf("%w: unknown frame type %d", ErrReplicaPayload, h.typ)
	case c.Err() != nil:
		return RepFrame{}, fmt.Errorf("%w: frame head: %v", ErrReplicaPayload, c.Err())
	case h.typ == repHeartbeat:
		if err := c.Done(); err != nil {
			return RepFrame{}, fmt.Errorf("%w: heartbeat: %v", ErrReplicaPayload, err)
		}
		if h.seq < lastSeq {
			return RepFrame{}, fmt.Errorf("%w: heartbeat places leader at %d behind follower at %d", ErrReplicaSeq, h.seq, lastSeq)
		}
		return RepFrame{Heartbeat: true, Seq: h.seq}, nil
	}
	if h.seq != lastSeq+1 {
		return RepFrame{}, fmt.Errorf("%w: got record seq %d, want %d", ErrReplicaSeq, h.seq, lastSeq+1)
	}
	return RepFrame{Seq: h.seq, Payload: c.B}, nil
}

// WithReplication enables the kindReplicate request on this server,
// streaming from src. Must be called before the server accepts
// connections.
func (s *Server) WithReplication(src ReplicationSource) *Server {
	s.repl = src
	return s
}

// WithHeartbeatInterval overrides how often idle replication streams
// heartbeat (default DefaultHeartbeat). Tests pin it high to capture
// deterministic streams.
func (s *Server) WithHeartbeatInterval(d time.Duration) *Server {
	if d > 0 {
		s.heartbeat = d
	}
	return s
}

// serveReplication converts an established connection into a one-way
// replication stream, after ServeConn recognized a kindReplicate
// request; body is the request's body, the seq the follower has applied
// through. Once the subscription is answered this goroutine only
// writes, so a watcher — the one goroutine a connection ever starts —
// takes over the read side: a peer
// close or a protocol-violating client frame surfaces through it and
// ends the stream. Any return closes the connection (replication
// failures are never per-request errors, the follower redials) and
// waits for the watcher to exit.
func (s *Server) serveReplication(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, id uint64, body []byte) error {
	refuse := func(err error) error {
		if err := writeFrame(bw, appendError(nil, id, err), MaxFrame); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return fmt.Errorf("wire: replication refused: %w", err)
	}
	var after int64
	in := binenc.Decoder(body)
	if binenc.Uint(in, &after); in.Done() != nil {
		return refuse(apierr.BadRequest("malformed replicate request"))
	}
	if s.repl == nil {
		return refuse(apierr.BadRequest("replication not enabled on this server"))
	}
	sub, err := s.repl.Subscribe(after)
	if err != nil {
		return refuse(err)
	}
	defer sub.Cancel()
	// A stream from here: what is buffered goes first, then a stream's buffer.
	if err := bw.Flush(); err != nil {
		return err
	}
	bw = bufio.NewWriterSize(conn, streamBufferSize)

	out := binenc.Encoder(nil)
	head := respHead{id: id, status: statusOK}
	head.walk(out)
	sh := subHead{snapshot: sub.Snapshot != nil, start: sub.StartSeq}
	sh.walk(out)
	if n := len(out.B) + len(sub.Snapshot); n > s.snapshotLimit {
		// Refused like any other subscription, not a dropped connection:
		// the follower must learn why, or it redials forever and every
		// attempt costs the leader a snapshot.
		return refuse(&apierr.APIError{Code: apierr.CodeInternal, Message: fmt.Sprintf("catch-up snapshot makes a %d-byte frame, over the %d-byte limit", n, s.snapshotLimit)})
	}
	resp := append(out.B, sub.Snapshot...)
	if err := writeFrame(bw, resp, s.snapshotLimit); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// The watcher's one send is its verdict on the read side; closing
	// conn unblocks its read, so the deferred drain always ends.
	peer := make(chan error, 1)
	go func() {
		defer close(peer)
		_, err := readFrameLen(br, MaxFrame)
		peer <- err
	}()
	defer func() {
		conn.Close()
		for range peer {
		}
	}()

	hb := s.heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	var scratch []byte
	for {
		select {
		case rec, ok := <-sub.Records:
			// Write the already-queued burst too before paying for a flush.
			for n := len(sub.Records); ; n-- {
				if !ok {
					return errors.New("wire: replication subscriber fell behind and was dropped")
				}
				if err := writeFrame(bw, rec.Payload, MaxFrame); err != nil {
					return err
				}
				if n == 0 {
					break
				}
				rec, ok = <-sub.Records
			}
		case <-ticker.C:
			scratch = AppendHeartbeatFrame(scratch[:0], s.repl.LeaderSeq())
			if err := writeFrame(bw, scratch, MaxFrame); err != nil {
				return err
			}
		case err := <-peer:
			if err == io.EOF {
				return nil // peer closed; clean end of stream
			}
			if err != nil {
				return err
			}
			return errors.New("wire: unexpected frame from replication subscriber")
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// ReplicationStream is the client end of a replication subscription.
// After OpenReplication succeeds the connection belongs to the stream:
// no other Conn method may be called on it, and the only way to stop
// consuming is to close the connection.
type ReplicationStream struct {
	c *Conn
	// Snapshot, when non-nil, is the leader's canonical state through
	// StartSeq; the follower must restore it before applying records.
	Snapshot []byte
	// StartSeq is the stream's base: the first record frame carries
	// StartSeq+1.
	StartSeq int64
	lastSeq  int64
	buf      []byte
}

// OpenReplication subscribes this connection to the leader's
// replication stream from afterSeq — the newest journal sequence
// number the caller has applied, 0 for a fresh follower. The server
// chooses tail or snapshot catch-up; see the stream grammar at the top
// of this file. The context bounds only the subscribe round trip.
func (c *Conn) OpenReplication(ctx context.Context, afterSeq int64) (*ReplicationStream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, c.broken
	}
	if afterSeq < 0 {
		return nil, fmt.Errorf("wire: negative afterSeq %d", afterSeq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.nc.SetDeadline(deadline); err != nil {
			return nil, c.fail(ctx, err)
		}
		defer c.nc.SetDeadline(time.Time{})
	}

	c.nextID++
	h := reqHead{id: c.nextID, kind: kindReplicate}
	enc := binenc.Encoder(c.req[:0])
	h.walk(enc)
	binenc.Uint(enc, &afterSeq)
	c.req = enc.B
	if err := writeFrame(c.bw, c.req, MaxFrame); err != nil {
		return nil, c.fail(ctx, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.fail(ctx, err)
	}

	r, err := c.readResponse(ctx, h.id, MaxSnapshotFrame)
	if err != nil {
		return nil, err
	}
	var sh subHead
	if sh.walk(r); r.Err() != nil {
		return nil, c.fail(ctx, errors.New("wire: malformed replicate response"))
	}
	c.br = bufio.NewReaderSize(c.br, streamBufferSize) // a stream's, over what the old one holds
	st := &ReplicationStream{c: c, StartSeq: sh.start, lastSeq: sh.start}
	if sh.snapshot {
		// The snapshot escapes to the caller inside the response buffer;
		// the connection gives it up (the stream reads into its own).
		st.Snapshot, c.resp = r.B, nil
	} else if r.Done() != nil {
		return nil, c.fail(ctx, errors.New("wire: unexpected body on tail-mode response"))
	}
	return st, nil
}

// Next blocks for the next stream frame, decoding and sequence-checking
// it (DecodeReplicationFrame). A context deadline bounds the wait;
// closing the connection from another goroutine unblocks it. Any error
// — transport, ErrReplicaPayload, ErrReplicaSeq — ends the stream; the
// caller closes the connection and redials to resubscribe.
func (st *ReplicationStream) Next(ctx context.Context) (RepFrame, error) {
	c := st.c
	if err := ctx.Err(); err != nil {
		return RepFrame{}, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.nc.SetDeadline(deadline); err != nil {
			return RepFrame{}, err
		}
		defer c.nc.SetDeadline(time.Time{})
	}
	payload, err := readFrame(c.br, st.buf, MaxFrame)
	if err != nil {
		return RepFrame{}, err
	}
	st.buf = payload
	f, err := DecodeReplicationFrame(payload, st.lastSeq)
	if err != nil {
		return RepFrame{}, err
	}
	if !f.Heartbeat {
		st.lastSeq = f.Seq
	}
	return f, nil
}
