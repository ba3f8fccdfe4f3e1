package wire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// Backend is the market surface the wire server drives. Both
// *market.Market and *journal.Market satisfy it: every command flows
// through ApplyEncodedCtx as the bytes it arrived as (journaled on a
// journaled backend, a batch answered entry by entry in res), queries
// through the views.
type Backend interface {
	ApplyEncodedCtx(ctx context.Context, body []byte, res []market.BidResult) (command.Event, error)

	Period() int
	Datasets() []market.DatasetID
	Stats(dataset market.DatasetID) (market.DatasetStats, error)
	SellerBalance(id market.SellerID) (market.Money, error)
	WaitRemaining(buyer market.BuyerID, dataset market.DatasetID) (int, error)
	Transactions() []market.Transaction
}

// Server serves the wire protocol over persistent connections.
type Server struct {
	b Backend

	bufSize int // per direction, connBufferSize; tests shrink it

	// repl, when set (WithReplication), serves kindReplicate requests;
	// heartbeat overrides the idle stream heartbeat interval.
	repl      ReplicationSource
	heartbeat time.Duration
	// snapshotLimit bounds the subscribe response; tests shrink it.
	snapshotLimit int

	tel      *obs.Telemetry
	requests *obs.Requests
	conns    *obs.Gauge
	gate     apierr.Gate // in front of the stats query

	// Pre-bound shield_stage_seconds series for the wire stages of the
	// durable-bid pipeline; nil on an uninstrumented server.
	stageRead   *obs.Histogram // wire.read: frame payload off the socket
	stageDecode *obs.Histogram // decode: binary command decode
	stageFlush  *obs.Histogram // ack.flush: response buffer to the socket
}

// NewServer returns a wire server over b.
func NewServer(b Backend) *Server {
	return &Server{b: b, bufSize: connBufferSize, snapshotLimit: MaxSnapshotFrame}
}

// WithTelemetry instruments the server on t: the obs.Requests lifecycle
// (request IDs — a frame's trace field propagates one — tracing, and
// latency by operation and status), the wire stages of the durable-bid
// pipeline (wire.read, decode, ack.flush on shield_stage_seconds) and
// the live connection count; a journaled backend records the request ID
// as the entry's trace. Must be called before the server accepts
// connections. An uninstrumented server adds nothing to the request
// context, so its journal entries carry no trace ids (the torture
// harness relies on this to keep wire-driven journals byte-identical to
// in-process ones).
func (s *Server) WithTelemetry(t *obs.Telemetry) *Server {
	s.tel = t
	s.requests = obs.NewRequests(t, "shield_wire_request_seconds",
		"Wire request latency by operation and status.", "op", "wire", "wire.",
		func(status int) string { return [...]string{statusOK: "ok", statusErr: "error"}[status] })
	s.conns = t.Registry.Gauge("shield_wire_connections",
		"Open wire-protocol connections.")
	s.stageRead = t.Stage("wire.read")
	s.stageDecode = t.Stage("decode")
	s.stageFlush = t.Stage("ack.flush")
	return s
}

// WithOperatorGate puts the stats query behind g, the HTTP server's
// operator gate; the wire protocol carries no credentials, so a closed
// gate refuses it. Must be called before the server accepts connections.
func (s *Server) WithOperatorGate(g apierr.Gate) *Server {
	s.gate = g
	return s
}

// Serve accepts connections on l until it closes, running each
// connection on its own goroutine. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() { _ = s.ServeConn(conn) }()
	}
}

// ServeConn serves one connection to completion: handshake, then frames
// until the peer closes or the stream turns malformed. It closes conn
// before returning and reports why the connection ended (nil for a
// clean peer close).
//
// The connection is this one goroutine: read a frame into the
// connection's payload buffer, execute it, buffer the response, and
// flush once the input is drained — N requests that arrived together
// cost one write syscall, a lone request is answered at once. The next
// frame overwrites the payload buffer, so nothing downstream may keep a
// sub-slice of it past its request (a bid's body is read in the commit
// stage while this goroutine waits for the answer). Only a
// conversion to a replication stream starts a second goroutine.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	if s.conns != nil {
		s.conns.Add(1)
		defer s.conns.Add(-1)
	}
	br := bufio.NewReaderSize(conn, s.bufSize)
	bw := bufio.NewWriterSize(conn, s.bufSize)

	if err := s.handshake(br, bw); err != nil {
		return err
	}

	// One request context for the connection's lifetime, rebound to each
	// request by handle (obs.RequestCtx states why that is legal).
	rc := &obs.RequestCtx{Context: context.Background()}
	timed := s.tel != nil
	var payload, resp []byte
	for {
		// The wait for a length header is idle time between requests,
		// not part of any request: only the payload transfer is charged
		// to the wire.read stage.
		n, err := readFrameLen(br, MaxFrame)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var start time.Time
		if timed {
			start = time.Now()
		}
		if payload, err = readFrameBody(br, payload, n); err != nil {
			return err
		}
		var readDur time.Duration
		if timed {
			readDur = time.Since(start)
		}
		// A replicate request converts the connection into a one-way
		// replication stream; it never returns to the request loop.
		var h reqHead
		in := binenc.Decoder(payload)
		if h.walk(in); in.Err() == nil && h.kind == kindReplicate {
			return s.serveReplication(conn, br, bw, h.id, in.B)
		}
		var tr *obs.Trace
		resp, tr = s.handle(rc, &h, in, resp[:0], readDur)
		err = writeFrame(bw, resp, MaxFrame)
		if err == nil && br.Buffered() == 0 {
			// The input is drained: this flush is the write that makes
			// the acknowledgment visible to the client, so it is charged
			// to the request as the ack.flush stage.
			start := time.Now()
			err = bw.Flush()
			if timed {
				d := time.Since(start)
				tr.AddSpan("ack.flush", start, d)
				s.stageFlush.ObserveTrace(d.Seconds(), tr.Exemplar())
			}
		}
		if timed {
			s.tel.Tracer.Finish(tr)
		}
		if err != nil {
			return err
		}
	}
}

// handshake validates the client hello and answers it with Version.
// A client offering a newer version is answered Version and may fall
// back to it; one offering an older version is answered version 0 and
// refused with an ErrHandshake naming both. On a bad magic it answers
// nothing (the peer is not speaking this protocol).
func (s *Server) handshake(br *bufio.Reader, bw *bufio.Writer) error {
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return err
	}
	if [3]byte(hello[:3]) != magic {
		return ErrHandshake
	}
	answer := [4]byte{magic[0], magic[1], magic[2], Version}
	if hello[3] < Version {
		answer[3] = 0
	}
	if _, err := bw.Write(answer[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if answer[3] == 0 {
		return fmt.Errorf("%w: client offered v%d, this server speaks only v%d", ErrHandshake, hello[3], Version)
	}
	return nil
}

// handle executes one request — h, its head as walked from in, which
// holds the body after it (or the walk's failure) — and appends the
// response payload to resp, returning the request's trace (nil when
// unsampled or uninstrumented) so ServeConn can attach the ack.flush
// stage before finishing it. An instrumented server runs the request
// through its obs.Requests lifecycle on rc, the connection's request
// context; an uninstrumented one leaves rc blank. handle never panics on
// malformed input and never closes the connection: every per-request
// failure becomes an error envelope whose code is drawn from the closed
// apierr set, leaving the stream usable for the requests pipelined
// behind it.
func (s *Server) handle(rc *obs.RequestCtx, h *reqHead, in *binenc.Codec, resp []byte, readDur time.Duration) ([]byte, *obs.Trace) {
	if in.Err() != nil {
		// An unreadable request id is echoed as 0, so the envelope still
		// parses as a response.
		msg := "malformed request header"
		if h.kind&kindTraceFlag != 0 {
			msg = "malformed trace field"
		}
		return appendError(resp, h.id, apierr.BadRequest(msg)), nil
	}

	op := "unknown"
	start := time.Time{}
	var tr *obs.Trace
	if s.requests != nil {
		// Backdate the request to when its payload began arriving, so
		// the trace covers the read and the latency histogram charges
		// transfer time to the request that caused it.
		start = time.Now().Add(-readDur)
		tr = s.requests.Begin(rc, h.trace, h.sampled, start)
		tr.AddSpan("wire.read", start, readDur)
		s.stageRead.ObserveTrace(readDur.Seconds(), tr.Exemplar())
	}

	// The head goes out as statusOK; a failure rewrites its last byte.
	out := binenc.Encoder(resp)
	head := respHead{id: h.id, status: statusOK}
	head.walk(out)
	status := len(out.B) - 1
	var err error
	switch h.kind &^ kindTraceFlag {
	case kindCommand:
		op, err = s.handleCommand(rc, in.B, out)
	case kindQuery:
		op, err = s.handleQuery(in.B, out)
	default:
		err = apierr.BadRequest("unknown request kind")
	}
	if err != nil {
		out.B = append(out.B[:status], statusErr)
		walkError(out, &err)
	}
	if s.requests != nil {
		s.requests.End(rc, op, int(out.B[status]), start)
	}
	return out.B, tr
}

// appendError appends a whole error response to request id.
func appendError(resp []byte, id uint64, err error) []byte {
	out := binenc.Encoder(resp)
	head := respHead{id: id, status: statusErr}
	head.walk(out)
	walkError(out, &err)
	return out.B
}

// handleCommand checks one binary command at the edge — a bid in place
// (command.IsBid), anything else by decoding it — and submits its bytes,
// returning its op name (for telemetry) and writing its result body to
// out, or returning its failure. A batch is answered entry by entry,
// like the HTTP batch endpoint, and refused whole past
// command.MaxBatchBids with that endpoint's message.
func (s *Server) handleCommand(ctx context.Context, body []byte, out *binenc.Codec) (string, error) {
	endDecode := obs.StageTimer(ctx, s.stageDecode, "decode")
	op := "bid"
	var res []market.BidResult
	isBid, err := command.IsBid(body)
	if !isBid {
		var cmd command.Command
		if cmd, err = command.DecodeBinary(body); err == nil {
			op = string(cmd.Op())
			if batch, ok := cmd.(command.BidBatch); ok {
				if err := apierr.CapBatch(len(batch.Bids)); err != nil {
					endDecode.End()
					return op, err
				}
				res = make([]market.BidResult, len(batch.Bids))
			}
		}
	}
	endDecode.End()
	if err != nil {
		return "bad_command", apierr.BadRequest(err.Error())
	}
	ev, err := s.b.ApplyEncodedCtx(ctx, body, res)
	switch {
	case res != nil:
		walkResults(out, &res)
	case err != nil:
		return op, err
	case ev.Kind == command.EvBidDecided:
		walkDecision(out, &ev.Decision)
	case ev.Kind == command.EvTicked:
		binenc.Uint(out, &ev.Period)
	}
	return op, nil
}

// queryOps names each query opcode, for telemetry.
var queryOps = [...]string{
	qPing: "ping", qPeriod: "period", qDatasets: "datasets", qStats: "stats",
	qBalance: "balance", qWait: "wait", qTransactions: "transactions",
}

// handleQuery executes one read, writing its result body to out.
// Queries bypass the command codec and read the market's lock-free
// views; they are never journaled.
func (s *Server) handleQuery(body []byte, out *binenc.Codec) (string, error) {
	var q query
	in := binenc.Decoder(body)
	q.walk(in)
	switch {
	case len(body) == 0:
		return "bad_query", apierr.BadRequest("missing query opcode")
	case int(q.op) >= len(queryOps) || queryOps[q.op] == "":
		return "bad_query", apierr.BadRequest("unknown query opcode")
	}
	op := queryOps[q.op]
	if in.Done() != nil {
		if q.op == qStats || q.op == qBalance || q.op == qWait {
			return op, apierr.BadRequest("malformed " + op + " query")
		}
		return op, apierr.BadRequest("trailing bytes")
	}
	var err error
	switch q.op {
	case qPeriod:
		p := s.b.Period()
		binenc.Uint(out, &p)
	case qDatasets:
		ids := s.b.Datasets()
		walkDatasets(out, &ids)
	case qStats:
		var st market.DatasetStats
		if st, err = s.gate.Stats(s.b, "", q.dataset); err == nil {
			walkStats(out, &st)
		}
	case qBalance:
		var bal market.Money
		if bal, err = s.b.SellerBalance(q.seller); err == nil {
			binenc.Fixed(out, &bal)
		}
	case qWait:
		var periods int
		if periods, err = s.b.WaitRemaining(q.buyer, q.dataset); err == nil {
			binenc.Uint(out, &periods)
		}
	case qTransactions:
		txs := s.b.Transactions()
		walkTransactions(out, &txs)
	}
	return op, err
}
