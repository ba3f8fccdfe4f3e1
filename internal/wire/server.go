package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/datamarket/shield/internal/apierr"
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

	bufSize int

	// repl, when set (WithReplication), serves kindReplicate requests;
	// heartbeat overrides the idle stream heartbeat interval.
	repl      ReplicationSource
	heartbeat time.Duration
	// snapshotLimit bounds the subscribe response; tests shrink it.
	snapshotLimit int

	tel     *obs.Telemetry
	latency *obs.Vec[*obs.Histogram]
	conns   *obs.Gauge

	// latencyBy pre-binds the latency series for the closed op/status
	// set, so the per-request lookup is one map read instead of a label
	// join through the Vec.
	latencyBy map[opStatus]*obs.Histogram

	// Pre-bound shield_stage_seconds series for the wire stages of the
	// durable-bid pipeline; nil on an uninstrumented server.
	stageRead   *obs.Histogram // wire.read: frame payload off the socket
	stageDecode *obs.Histogram // decode: binary command decode
	stageFlush  *obs.Histogram // ack.flush: response buffer to the socket
}

// NewServer returns a wire server over b.
func NewServer(b Backend) *Server {
	return &Server{b: b, bufSize: DefaultBufferSize, snapshotLimit: MaxSnapshotFrame}
}

// WithBufferSize sets the per-connection read and write buffer size in
// bytes (default DefaultBufferSize). Rigs holding thousands of
// connections in one process shrink it — two 64KiB buffers per
// connection is 128MiB at 1k connections before a single frame flows.
// Sizes below one frame header still work; bufio grows reads as needed
// and large frames bypass the write buffer. Must be called before the
// server accepts connections.
func (s *Server) WithBufferSize(n int) *Server {
	if n > 0 {
		s.bufSize = n
	}
	return s
}

// WithTelemetry instruments the server on t: per-request latency by
// operation and status (tail buckets carry the last sampled request's
// ID as an exemplar), the wire stages of the durable-bid pipeline
// (wire.read, decode, ack.flush on shield_stage_seconds), and the live
// connection count. It also turns on request IDs and tracing — a frame
// carrying the trace field executes under the client's propagated
// ID (continuing its trace when the sampled bit is set), any other
// frame under a freshly minted, locally sampled ID (a number until a
// sampled trace or the journal frame spells it) — and a journaled
// backend records that ID as the entry's trace. Must be called before
// the server accepts connections; an uninstrumented server adds
// nothing to the request context, so its journal entries carry no
// trace ids (the torture harness relies on this to keep wire-driven
// journals byte-identical to in-process ones).
func (s *Server) WithTelemetry(t *obs.Telemetry) *Server {
	s.tel = t
	s.latency = t.Registry.HistogramVec("shield_wire_request_seconds",
		"Wire request latency by operation and status.",
		obs.LatencyBuckets(), "op", "status")
	s.conns = t.Registry.Gauge("shield_wire_connections",
		"Open wire-protocol connections.")
	s.stageRead = t.Stage("wire.read")
	s.stageDecode = t.Stage("decode")
	s.stageFlush = t.Stage("ack.flush")
	s.latencyBy = map[opStatus]*obs.Histogram{}
	for op := range traceNames {
		for _, status := range []string{"ok", "error"} {
			s.latencyBy[opStatus{op, status}] = s.latency.With(op, status)
		}
	}
	return s
}

// opStatus keys the pre-bound latency series.
type opStatus struct{ op, status string }

// latencyFor returns the latency series for op/status without the
// per-request Vec label join; an op outside the closed set (there are
// none today) falls through to the Vec.
func (s *Server) latencyFor(op, status string) *obs.Histogram {
	if h, ok := s.latencyBy[opStatus{op, status}]; ok {
		return h
	}
	return s.latency.With(op, status)
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
		r := &payloadReader{data: payload}
		id := r.uvarint()
		if kind := r.byte(); r.err == nil && kind == kindReplicate {
			return s.serveReplication(conn, br, bw, id, r)
		}
		var tr *obs.Trace
		resp, tr = s.handle(rc, payload, resp[:0], readDur)
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
				s.stageFlush.ObserveTrace(d.Seconds(), exemplarOf(tr))
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

// exemplarOf returns the trace's ID when the request is sampled (tr
// non-nil) — the exemplar stamped onto wire histograms.
func exemplarOf(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// traceNames precomputes "wire."+op for the closed op set so the
// per-request trace rename doesn't allocate; an op outside the set
// (there are none today) falls back to the concatenation.
var traceNames = func() map[string]string {
	m := map[string]string{}
	for _, op := range []string{
		"register_buyer", "register_seller", "upload", "compose",
		"withdraw", "bid", "bid_batch", "tick", "settle",
		"ping", "period", "datasets", "stats", "balance",
		"wait", "transactions",
		"unknown", "bad_command", "bad_query",
	} {
		m[op] = "wire." + op
	}
	return m
}()

func traceName(op string) string {
	if n, ok := traceNames[op]; ok {
		return n
	}
	return "wire." + op
}

// handle executes one request payload and appends the response payload
// to resp, returning the request's trace (nil when unsampled or
// uninstrumented) so ServeConn can attach the ack.flush stage before
// finishing it. An instrumented server rebinds rc, the connection's
// request context, to this request's ID and trace; an uninstrumented
// one leaves it blank. handle never panics on malformed input and never closes
// the connection: every per-request failure becomes an error envelope
// whose code is drawn from the closed apierr set, leaving the stream
// usable for the requests pipelined behind it.
func (s *Server) handle(rc *obs.RequestCtx, payload, resp []byte, readDur time.Duration) ([]byte, *obs.Trace) {
	r := &payloadReader{data: payload}
	reqID := r.uvarint()
	kind := r.byte()
	if r.err != nil {
		// The request id itself was unreadable; echo id 0 so the
		// envelope still parses as a response.
		return appendError(binary.AppendUvarint(resp, reqID),
			apierr.CodeBadRequest, "malformed request header"), nil
	}

	// The trace field sits between the kind byte and the body, flagged
	// on the kind byte.
	traceID, sampled := "", false
	if kind&kindTraceFlag != 0 {
		kind &^= kindTraceFlag
		traceID = r.str()
		sampled = r.byte() == 1
		if r.err != nil {
			return appendError(binary.AppendUvarint(resp, reqID),
				apierr.CodeBadRequest, "malformed trace field"), nil
		}
	}

	op := "unknown"
	start := time.Time{}
	var tr *obs.Trace
	if s.tel != nil {
		// Backdate the request to when its payload began arriving, so
		// the trace covers the read and the latency histogram charges
		// transfer time to the request that caused it.
		start = time.Now().Add(-readDur)
		if traceID == "" {
			// No propagated context: mint a local ID and let the local
			// sampler decide.
			tr = rc.Mint(s.tel.Tracer, "wire", start)
		} else {
			if sampled {
				// The client sampled this request; continue its trace here
				// regardless of the local sampling rate.
				tr = s.tel.Tracer.Adopt(traceID, "wire", start)
			}
			rc.Reset(traceID, tr)
		}
		if tr != nil {
			tr.AddSpan("wire.read", start, readDur)
		}
		s.stageRead.ObserveTrace(readDur.Seconds(), exemplarOf(tr))
	}

	resp = binary.AppendUvarint(resp, reqID)
	switch kind {
	case kindCommand:
		op, resp = s.handleCommand(rc, r.rest(), resp)
	case kindQuery:
		op, resp = s.handleQuery(r, resp)
	default:
		resp = appendError(resp, apierr.CodeBadRequest, "unknown request kind")
	}

	if s.tel != nil {
		tr.SetName(traceName(op))
		status := "ok"
		// The status byte follows the uvarint request id; scanning from
		// the front of this response is cheaper than threading a flag
		// through every arm above.
		if _, n := binary.Uvarint(resp); n > 0 && n < len(resp) && resp[n] == statusErr {
			status = "error"
		}
		s.latencyFor(op, status).ObserveTrace(time.Since(start).Seconds(), exemplarOf(tr))
	}
	return resp, tr
}

// handleCommand checks one binary command at the edge — a bid in place
// (command.IsBid), anything else by decoding it — and submits its bytes,
// returning its op name (for telemetry) and the response. A batch is
// answered entry by entry, like the HTTP batch endpoint, and refused
// whole past command.MaxBatchBids with that endpoint's message.
func (s *Server) handleCommand(ctx context.Context, body, resp []byte) (string, []byte) {
	endDecode := obs.StageTimer(ctx, s.stageDecode, "decode")
	op := "bid"
	var res []market.BidResult
	isBid, err := command.IsBid(body)
	if !isBid {
		var cmd command.Command
		if cmd, err = command.DecodeBinary(body); err == nil {
			op = string(cmd.Op())
			if batch, ok := cmd.(command.BidBatch); ok {
				if len(batch.Bids) > command.MaxBatchBids {
					endDecode.End()
					return op, appendError(resp, apierr.CodeBadRequest,
						fmt.Sprintf("batch exceeds %d bids", command.MaxBatchBids))
				}
				res = make([]market.BidResult, len(batch.Bids))
			}
		}
	}
	endDecode.End()
	if err != nil {
		return "bad_command", appendError(resp, apierr.CodeBadRequest, err.Error())
	}
	ev, err := s.b.ApplyEncodedCtx(ctx, body, res)
	switch {
	case res != nil:
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(len(res)))
		for _, r := range res {
			if r.Err != nil {
				resp = appendFailure(resp, r.Err)
				continue
			}
			resp = appendDecision(append(resp, statusOK), r.Decision)
		}
		return op, resp
	case err != nil:
		return op, appendFailure(resp, err)
	case ev.Kind == command.EvBidDecided:
		return op, appendDecision(append(resp, statusOK), ev.Decision)
	case ev.Kind == command.EvTicked:
		return op, binary.AppendUvarint(append(resp, statusOK), uint64(ev.Period))
	}
	return op, append(resp, statusOK)
}

// handleQuery executes one read. Queries bypass the command codec and
// read the market's lock-free views; they are never journaled.
func (s *Server) handleQuery(r *payloadReader, resp []byte) (string, []byte) {
	opByte := r.byte()
	if r.err != nil {
		return "bad_query", appendError(resp, apierr.CodeBadRequest, "missing query opcode")
	}
	switch opByte {
	case qPing:
		if !r.done() {
			return "ping", appendError(resp, apierr.CodeBadRequest, "trailing bytes")
		}
		return "ping", append(resp, statusOK)

	case qPeriod:
		if !r.done() {
			return "period", appendError(resp, apierr.CodeBadRequest, "trailing bytes")
		}
		resp = append(resp, statusOK)
		return "period", binary.AppendUvarint(resp, uint64(s.b.Period()))

	case qDatasets:
		if !r.done() {
			return "datasets", appendError(resp, apierr.CodeBadRequest, "trailing bytes")
		}
		ids := s.b.Datasets()
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(len(ids)))
		for _, id := range ids {
			resp = appendString(resp, string(id))
		}
		return "datasets", resp

	case qStats:
		ds := r.str()
		if !r.done() {
			return "stats", appendError(resp, apierr.CodeBadRequest, "malformed stats query")
		}
		st, err := s.b.Stats(market.DatasetID(ds))
		if err != nil {
			return "stats", appendFailure(resp, err)
		}
		resp = append(resp, statusOK)
		resp = appendString(resp, string(st.Dataset))
		resp = binary.AppendUvarint(resp, uint64(st.Bids))
		resp = binary.AppendUvarint(resp, uint64(st.Allocations))
		resp = binary.AppendUvarint(resp, uint64(st.Epochs))
		resp = appendFloat(resp, st.Revenue)
		resp = appendFloat(resp, st.PostingPrice)
		resp = appendFloat(resp, st.MostLikelyPrice)
		return "stats", resp

	case qBalance:
		seller := r.str()
		if !r.done() {
			return "balance", appendError(resp, apierr.CodeBadRequest, "malformed balance query")
		}
		bal, err := s.b.SellerBalance(market.SellerID(seller))
		if err != nil {
			return "balance", appendFailure(resp, err)
		}
		resp = append(resp, statusOK)
		return "balance", appendInt64(resp, int64(bal))

	case qWait:
		buyer := r.str()
		ds := r.str()
		if !r.done() {
			return "wait", appendError(resp, apierr.CodeBadRequest, "malformed wait query")
		}
		periods, err := s.b.WaitRemaining(market.BuyerID(buyer), market.DatasetID(ds))
		if err != nil {
			return "wait", appendFailure(resp, err)
		}
		resp = append(resp, statusOK)
		return "wait", binary.AppendUvarint(resp, uint64(periods))

	case qTransactions:
		if !r.done() {
			return "transactions", appendError(resp, apierr.CodeBadRequest, "trailing bytes")
		}
		txs := s.b.Transactions()
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(len(txs)))
		for _, tx := range txs {
			resp = binary.AppendUvarint(resp, uint64(tx.Seq))
			resp = appendString(resp, string(tx.Buyer))
			resp = appendString(resp, string(tx.Dataset))
			resp = appendInt64(resp, int64(tx.Price))
			resp = binary.AppendUvarint(resp, uint64(tx.Period))
		}
		return "transactions", resp

	default:
		return "bad_query", appendError(resp, apierr.CodeBadRequest, "unknown query opcode")
	}
}

// appendError appends a statusErr envelope.
func appendError(resp []byte, code, msg string) []byte {
	resp = append(resp, statusErr)
	resp = appendString(resp, code)
	return appendString(resp, msg)
}

// appendFailure appends err's statusErr envelope, its code from the
// closed apierr set.
func appendFailure(resp []byte, err error) []byte {
	code, _ := apierr.Classify(err)
	return appendError(resp, code, err.Error())
}

// appendDecision appends a bid decision result body.
func appendDecision(resp []byte, d market.Decision) []byte {
	if d.Allocated {
		resp = append(resp, 1)
	} else {
		resp = append(resp, 0)
	}
	resp = appendInt64(resp, int64(d.PricePaid))
	return binary.AppendUvarint(resp, uint64(d.WaitPeriods))
}
