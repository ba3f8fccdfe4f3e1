package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// Conn is a client connection speaking the wire protocol. All methods
// are safe for concurrent use; concurrent calls serialize on the
// connection (one request-response round trip at a time). A request is
// encoded straight into the connection's scratch buffer and its response
// parsed in place, so the transport itself allocates nothing per call.
// A Conn whose underlying stream fails is dead — every later call
// returns the same sticky error, which wraps ErrConnClosed — and should
// be closed and redialed. Calls respect their context: a deadline
// bounds the round trip via the socket's I/O deadline, and cancellation
// of a deadline-less context interrupts an in-flight call promptly.
type Conn struct {
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	nextID uint64
	req    []byte       // scratch request payload
	resp   []byte       // scratch response payload
	rd     binenc.Codec // scratch decoder over resp
	broken error        // sticky stream failure
}

// A request/response connection, client or server, buffers 4 KiB each
// way: its frames are tens of bytes, a burst of them still fits, and
// bufio hands a frame bigger than the buffer straight to the socket. A
// connection converted to a replication stream, a one-way burst of
// records, switches to 64 KiB at both ends: the server's writer and the
// client's reader.
const connBufferSize, streamBufferSize = 4 << 10, 64 << 10

// Dial connects to a wire server at addr ("host:port") and performs the
// handshake.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewConn(nc)
	if err != nil {
		nc.Close()
	}
	return c, err
}

// NewConn wraps an established stream (a TCP connection, a net.Pipe
// end) as a client connection, performing the handshake.
func NewConn(nc net.Conn) (*Conn, error) {
	c := &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, connBufferSize),
		bw: bufio.NewWriterSize(nc, connBufferSize),
	}
	hello := [4]byte{magic[0], magic[1], magic[2], Version}
	if _, err := c.bw.Write(hello[:]); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	var answer [4]byte
	if _, err := io.ReadFull(c.br, answer[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if [3]byte(answer[:3]) != magic {
		return nil, ErrHandshake
	}
	if answer[3] != Version {
		return nil, fmt.Errorf("%w: server answered v%d, this client speaks only v%d", ErrHandshake, answer[3], Version)
	}
	return c, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// roundTrip sends one request payload of the given kind (body appends
// the payload after the header; if it fails, its error is returned
// before a byte reaches the stream and the connection stays usable)
// and, on a statusOK response, decodes the result body with decode
// while still holding the connection lock — the body aliases the
// connection's scratch buffer, which the next round trip overwrites. A
// context carrying an obs request ID gets the trace field: the server
// journals and logs under the caller's ID, and a sampled trace
// continues server-side. A statusErr envelope comes back as an
// *apierr.APIError, whose Error() is the server-side error's exact
// message; decode never runs for it. decode must read the whole result
// body, and a nil decode requires an empty one.
func (c *Conn) roundTrip(ctx context.Context, kind byte, body func(req []byte) ([]byte, error), decode func(r *binenc.Codec)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return c.broken
	}

	// A context that was dead before anything hit the stream costs
	// nothing: the connection stays usable.
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		// The I/O deadline alone bounds every blocking call below, so no
		// watcher goroutine is needed on this, the common timeout path.
		if err := c.nc.SetDeadline(deadline); err != nil {
			return c.fail(ctx, err)
		}
		defer c.nc.SetDeadline(time.Time{})
	} else if done := ctx.Done(); done != nil {
		// Cancelable but unbounded: a watcher expires the I/O deadline
		// the moment the context dies, so an in-flight call against a
		// stalled or half-closed server returns promptly instead of
		// blocking forever. The watcher always exits before roundTrip
		// returns — it cannot leak or poke a later round trip.
		stop := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			select {
			case <-done:
				c.nc.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watched
			c.nc.SetDeadline(time.Time{})
		}()
	}

	c.nextID++
	h := reqHead{id: c.nextID, kind: kind}
	if traceID := obs.RequestIDFrom(ctx); traceID != "" {
		h.kind |= kindTraceFlag
		h.trace, h.sampled = traceID, obs.TraceFrom(ctx) != nil
	}
	enc := binenc.Encoder(c.req[:0])
	h.walk(enc)
	req, err := body(enc.B)
	if err != nil {
		return err
	}
	c.req = req
	if err := writeFrame(c.bw, c.req, MaxFrame); err != nil {
		return c.fail(ctx, err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(ctx, err)
	}

	r, err := c.readResponse(ctx, h.id, MaxFrame)
	if err != nil {
		return err
	}
	if decode != nil {
		decode(r)
	}
	if err := r.Done(); err != nil {
		return c.fail(ctx, fmt.Errorf("wire: malformed result body: %w", err))
	}
	return nil
}

// readResponse reads the response to request id — one frame of at most
// limit bytes, into the connection's scratch buffer — and opens its
// envelope: a statusOK response yields the connection's decoder at the
// result body, a statusErr one the server's *apierr.APIError. Anything
// else marks the connection dead. The caller holds c.mu.
func (c *Conn) readResponse(ctx context.Context, id uint64, limit int) (*binenc.Codec, error) {
	var err error
	if c.resp, err = readFrame(c.br, c.resp, limit); err != nil {
		return nil, c.fail(ctx, err)
	}
	r := &c.rd
	*r = *binenc.Decoder(c.resp)
	var h respHead
	if h.walk(r); r.Err() != nil {
		return nil, c.fail(ctx, fmt.Errorf("wire: malformed response envelope"))
	}
	if h.id != id {
		// Responses come back in request order on a serialized
		// connection; a mismatch means the stream is desynchronized.
		return nil, c.fail(ctx, fmt.Errorf("wire: response id %d for request %d", h.id, id))
	}
	switch h.status {
	case statusOK:
		return r, nil
	case statusErr:
		var apiErr error
		if walkError(r, &apiErr); r.Done() != nil {
			return nil, c.fail(ctx, fmt.Errorf("wire: malformed error envelope"))
		}
		return nil, apiErr
	default:
		return nil, c.fail(ctx, fmt.Errorf("wire: unknown response status %d", h.status))
	}
}

// fail marks the connection dead with a sticky error wrapping
// ErrConnClosed and returns it. When the context expired or was
// canceled — the deadline broke the blocking I/O, or the watcher did —
// the context's error is recorded as the cause, so callers can
// distinguish their own timeout from a server hangup with errors.Is.
// Every caller from now on, including the ones already queued on the
// connection mutex mid-pipeline, observes the same typed error.
func (c *Conn) fail(ctx context.Context, err error) error {
	if c.broken == nil {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("%v: %w", err, cerr)
		} else if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
			// The socket deadline was armed from the context's deadline,
			// and the net poller can observe it a beat before the
			// context's own timer flips ctx.Err() — the timeout is the
			// context's either way.
			err = fmt.Errorf("%v: %w", err, context.DeadlineExceeded)
		}
		c.broken = fmt.Errorf("%w: %w", ErrConnClosed, err)
	}
	return c.broken
}

// apply sends one command, decoding any result body with decode (nil
// for a command whose success carries none).
func (c *Conn) apply(ctx context.Context, cmd command.Command, decode func(r *binenc.Codec)) error {
	return c.roundTrip(ctx, kindCommand, func(req []byte) ([]byte, error) {
		return command.AppendBinary(req, cmd)
	}, decode)
}

// RegisterBuyer registers a buyer account. It never returns a
// credential: the wire protocol serves deployments without bid auth
// (marketd refuses -auth with -wire-addr).
func (c *Conn) RegisterBuyer(ctx context.Context, id market.BuyerID) (string, error) {
	return "", c.apply(ctx, command.RegisterBuyer{Buyer: id}, nil)
}

// RegisterSeller registers a seller account.
func (c *Conn) RegisterSeller(ctx context.Context, id market.SellerID) error {
	return c.apply(ctx, command.RegisterSeller{Seller: id}, nil)
}

// UploadDataset registers a base dataset for seller.
func (c *Conn) UploadDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.apply(ctx, command.UploadDataset{Seller: seller, Dataset: id}, nil)
}

// ComposeDataset registers a derived dataset.
func (c *Conn) ComposeDataset(ctx context.Context, id market.DatasetID, constituents ...market.DatasetID) error {
	return c.apply(ctx, command.ComposeDataset{Dataset: id, Constituents: constituents}, nil)
}

// WithdrawDataset removes a base dataset.
func (c *Conn) WithdrawDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.apply(ctx, command.WithdrawDataset{Seller: seller, Dataset: id}, nil)
}

// SubmitBid places one bid and returns the market's decision.
func (c *Conn) SubmitBid(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error) {
	var d market.Decision
	err := c.apply(ctx, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount},
		func(r *binenc.Codec) { walkDecision(r, &d) })
	if err != nil {
		return market.Decision{}, err
	}
	return d, nil
}

// SubmitBids places a batch of bids in one frame and returns per-entry
// results in request order, exactly like market.SubmitBids: one failed
// bid never aborts the rest.
func (c *Conn) SubmitBids(ctx context.Context, reqs []market.BidRequest) ([]market.BidResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	bids := make([]command.SubmitBid, len(reqs))
	for i, r := range reqs {
		bids[i] = command.SubmitBid{Buyer: r.Buyer, Dataset: r.Dataset, Amount: r.Amount}
	}
	var out []market.BidResult
	err := c.apply(ctx, command.BidBatch{Bids: bids}, func(r *binenc.Codec) {
		if walkResults(r, &out); len(out) != len(reqs) {
			r.Fail("%d results for %d bids", len(out), len(reqs))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tick advances the market period and returns the new period.
func (c *Conn) Tick(ctx context.Context) (int, error) {
	var p int
	if err := c.apply(ctx, command.Tick{}, func(r *binenc.Codec) { binenc.Uint(r, &p) }); err != nil {
		return 0, err
	}
	return p, nil
}

// query sends one query frame, decoding the result body with decode.
func (c *Conn) query(ctx context.Context, q query, decode func(r *binenc.Codec)) error {
	return c.roundTrip(ctx, kindQuery, func(req []byte) ([]byte, error) {
		enc := binenc.Encoder(req)
		q.walk(enc)
		return enc.B, nil
	}, decode)
}

// Ping round-trips an empty query, verifying the connection is alive.
func (c *Conn) Ping(ctx context.Context) error {
	return c.query(ctx, query{op: qPing}, nil)
}

// Period returns the current market period.
func (c *Conn) Period(ctx context.Context) (int, error) {
	var p int
	if err := c.query(ctx, query{op: qPeriod}, func(r *binenc.Codec) { binenc.Uint(r, &p) }); err != nil {
		return 0, err
	}
	return p, nil
}

// Datasets returns the ids of all priced datasets.
func (c *Conn) Datasets(ctx context.Context) ([]market.DatasetID, error) {
	var out []market.DatasetID
	err := c.query(ctx, query{op: qDatasets}, func(r *binenc.Codec) { walkDatasets(r, &out) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats returns one dataset's diagnostic snapshot (operator-facing; see
// market.DatasetStats).
func (c *Conn) Stats(ctx context.Context, dataset market.DatasetID) (market.DatasetStats, error) {
	var st market.DatasetStats
	err := c.query(ctx, query{op: qStats, dataset: dataset}, func(r *binenc.Codec) { walkStats(r, &st) })
	if err != nil {
		return market.DatasetStats{}, err
	}
	return st, nil
}

// SellerBalance returns a seller's accumulated revenue.
func (c *Conn) SellerBalance(ctx context.Context, id market.SellerID) (market.Money, error) {
	var bal market.Money
	if err := c.query(ctx, query{op: qBalance, seller: id}, func(r *binenc.Codec) { binenc.Fixed(r, &bal) }); err != nil {
		return 0, err
	}
	return bal, nil
}

// WaitRemaining returns how many periods of a Time-Shield wait remain
// for buyer on dataset (zero when the buyer may bid).
func (c *Conn) WaitRemaining(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID) (int, error) {
	var periods int
	if err := c.query(ctx, query{op: qWait, buyer: buyer, dataset: dataset}, func(r *binenc.Codec) { binenc.Uint(r, &periods) }); err != nil {
		return 0, err
	}
	return periods, nil
}

// Transactions returns the completed-sale log in sequence order.
func (c *Conn) Transactions(ctx context.Context) ([]market.Transaction, error) {
	var out []market.Transaction
	err := c.query(ctx, query{op: qTransactions}, func(r *binenc.Codec) { walkTransactions(r, &out) })
	if err != nil {
		return nil, err
	}
	return out, nil
}
