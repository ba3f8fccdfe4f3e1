package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/apierr"
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
	req    []byte        // scratch request payload
	resp   []byte        // scratch response payload
	rd     payloadReader // scratch cursor over resp
	broken error         // sticky stream failure
}

// DefaultBufferSize is the per-direction buffered-I/O size a connection
// uses unless overridden: generous enough to absorb a deep pipeline or
// a large batch in one syscall.
const DefaultBufferSize = 64 << 10

// Dial connects to a wire server at addr ("host:port") and performs the
// handshake.
func Dial(addr string) (*Conn, error) {
	return DialSize(addr, DefaultBufferSize)
}

// DialSize is Dial with an explicit per-direction buffer size. Rigs
// holding thousands of mostly idle connections in one process shrink
// the buffers to keep memory linear in connections, not in
// connections × DefaultBufferSize.
func DialSize(addr string, bufSize int) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewConnSize(nc, bufSize)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewConn wraps an established stream (a TCP connection, a net.Pipe
// end) as a client connection, performing the handshake.
func NewConn(nc net.Conn) (*Conn, error) {
	return NewConnSize(nc, DefaultBufferSize)
}

// NewConnSize is NewConn with an explicit per-direction buffer size.
func NewConnSize(nc net.Conn, bufSize int) (*Conn, error) {
	if bufSize <= 0 {
		bufSize = DefaultBufferSize
	}
	c := &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, bufSize),
		bw: bufio.NewWriterSize(nc, bufSize),
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
// message; decode never runs for it. A nil decode requires an empty
// result body.
func (c *Conn) roundTrip(ctx context.Context, kind byte, body func(req []byte) ([]byte, error), decode func(r *payloadReader) error) error {
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
	id := c.nextID
	req := binary.AppendUvarint(c.req[:0], id)
	if traceID := obs.RequestIDFrom(ctx); traceID == "" {
		req = append(req, kind)
	} else {
		req = append(req, kind|kindTraceFlag)
		req = appendString(req, traceID)
		if obs.TraceFrom(ctx) != nil {
			req = append(req, 1)
		} else {
			req = append(req, 0)
		}
	}
	req, err := body(req)
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

	r, err := c.readResponse(ctx, id, MaxFrame)
	if err != nil {
		return err
	}
	if decode == nil {
		if len(r.rest()) != 0 {
			return c.fail(ctx, fmt.Errorf("wire: unexpected result body"))
		}
		return nil
	}
	if err := decode(r); err != nil {
		return c.fail(ctx, err)
	}
	if !r.done() {
		return c.fail(ctx, fmt.Errorf("wire: malformed result body"))
	}
	return nil
}

// readResponse reads the response to request id — one frame of at most
// limit bytes, into the connection's scratch buffer — and opens its
// envelope: a statusOK response yields the connection's cursor at the
// result body, a statusErr one the server's *apierr.APIError. Anything
// else marks the connection dead. The caller holds c.mu.
func (c *Conn) readResponse(ctx context.Context, id uint64, limit int) (*payloadReader, error) {
	var err error
	if c.resp, err = readFrame(c.br, c.resp, limit); err != nil {
		return nil, c.fail(ctx, err)
	}
	r := &c.rd
	*r = payloadReader{data: c.resp}
	gotID := r.uvarint()
	status := r.byte()
	if r.err != nil {
		return nil, c.fail(ctx, fmt.Errorf("wire: malformed response envelope"))
	}
	if gotID != id {
		// Responses come back in request order on a serialized
		// connection; a mismatch means the stream is desynchronized.
		return nil, c.fail(ctx, fmt.Errorf("wire: response id %d for request %d", gotID, id))
	}
	switch status {
	case statusOK:
		return r, nil
	case statusErr:
		code := r.str()
		msg := r.str()
		if r.err != nil {
			return nil, c.fail(ctx, fmt.Errorf("wire: malformed error envelope"))
		}
		return nil, &apierr.APIError{Code: code, Message: msg}
	default:
		return nil, c.fail(ctx, fmt.Errorf("wire: unknown response status %d", status))
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
func (c *Conn) apply(ctx context.Context, cmd command.Command, decode func(r *payloadReader) error) error {
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
		func(r *payloadReader) error {
			var ok bool
			if d, ok = readDecision(r); !ok {
				return fmt.Errorf("wire: malformed decision body")
			}
			return nil
		})
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
	err := c.apply(ctx, command.BidBatch{Bids: bids}, func(r *payloadReader) error {
		n := r.uvarint()
		if r.err != nil || n != uint64(len(reqs)) {
			return fmt.Errorf("wire: malformed batch body")
		}
		out = make([]market.BidResult, len(reqs))
		for i := range out {
			switch r.byte() {
			case statusOK:
				d, ok := readDecision(r)
				if !ok {
					return fmt.Errorf("wire: malformed batch entry")
				}
				out[i].Decision = d
			case statusErr:
				code := r.str()
				msg := r.str()
				if r.err != nil {
					return fmt.Errorf("wire: malformed batch entry")
				}
				out[i].Err = &apierr.APIError{Code: code, Message: msg}
			default:
				return fmt.Errorf("wire: malformed batch entry")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tick advances the market period and returns the new period.
func (c *Conn) Tick(ctx context.Context) (int, error) {
	var p uint64
	err := c.apply(ctx, command.Tick{}, func(r *payloadReader) error {
		p = r.uvarint()
		return r.err
	})
	if err != nil {
		return 0, err
	}
	return int(p), nil
}

// query sends one query frame, decoding the result body with decode.
func (c *Conn) query(ctx context.Context, op byte, args func(req []byte) []byte, decode func(r *payloadReader) error) error {
	return c.roundTrip(ctx, kindQuery, func(req []byte) ([]byte, error) {
		req = append(req, op)
		if args != nil {
			req = args(req)
		}
		return req, nil
	}, decode)
}

// Ping round-trips an empty query, verifying the connection is alive.
func (c *Conn) Ping(ctx context.Context) error {
	return c.query(ctx, qPing, nil, nil)
}

// Period returns the current market period.
func (c *Conn) Period(ctx context.Context) (int, error) {
	var p uint64
	err := c.query(ctx, qPeriod, nil, func(r *payloadReader) error {
		p = r.uvarint()
		return r.err
	})
	if err != nil {
		return 0, err
	}
	return int(p), nil
}

// Datasets returns the ids of all priced datasets.
func (c *Conn) Datasets(ctx context.Context) ([]market.DatasetID, error) {
	var out []market.DatasetID
	err := c.query(ctx, qDatasets, nil, func(r *payloadReader) error {
		n := r.uvarint()
		if r.err != nil || n > uint64(len(r.rest())) {
			return fmt.Errorf("wire: malformed datasets body")
		}
		out = make([]market.DatasetID, 0, n)
		for i := uint64(0); i < n; i++ {
			out = append(out, market.DatasetID(r.str()))
		}
		return r.err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats returns one dataset's diagnostic snapshot (operator-facing; see
// market.DatasetStats).
func (c *Conn) Stats(ctx context.Context, dataset market.DatasetID) (market.DatasetStats, error) {
	var st market.DatasetStats
	err := c.query(ctx, qStats, func(req []byte) []byte {
		return appendString(req, string(dataset))
	}, func(r *payloadReader) error {
		st.Dataset = market.DatasetID(r.str())
		st.Bids = int(r.uvarint())
		st.Allocations = int(r.uvarint())
		st.Epochs = int(r.uvarint())
		st.Revenue = r.float()
		st.PostingPrice = r.float()
		st.MostLikelyPrice = r.float()
		return r.err
	})
	if err != nil {
		return market.DatasetStats{}, err
	}
	return st, nil
}

// SellerBalance returns a seller's accumulated revenue.
func (c *Conn) SellerBalance(ctx context.Context, id market.SellerID) (market.Money, error) {
	var bal market.Money
	err := c.query(ctx, qBalance, func(req []byte) []byte {
		return appendString(req, string(id))
	}, func(r *payloadReader) error {
		bal = market.Money(r.int64())
		return r.err
	})
	if err != nil {
		return 0, err
	}
	return bal, nil
}

// WaitRemaining returns how many periods of a Time-Shield wait remain
// for buyer on dataset (zero when the buyer may bid).
func (c *Conn) WaitRemaining(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID) (int, error) {
	var periods uint64
	err := c.query(ctx, qWait, func(req []byte) []byte {
		req = appendString(req, string(buyer))
		return appendString(req, string(dataset))
	}, func(r *payloadReader) error {
		periods = r.uvarint()
		return r.err
	})
	if err != nil {
		return 0, err
	}
	return int(periods), nil
}

// Transactions returns the completed-sale log in sequence order.
func (c *Conn) Transactions(ctx context.Context) ([]market.Transaction, error) {
	var out []market.Transaction
	err := c.query(ctx, qTransactions, nil, func(r *payloadReader) error {
		n := r.uvarint()
		if r.err != nil || n > uint64(len(r.rest())) {
			return fmt.Errorf("wire: malformed transactions body")
		}
		out = make([]market.Transaction, 0, n)
		for i := uint64(0); i < n; i++ {
			out = append(out, market.Transaction{
				Seq:     int(r.uvarint()),
				Buyer:   market.BuyerID(r.str()),
				Dataset: market.DatasetID(r.str()),
				Price:   market.Money(r.int64()),
				Period:  int(r.uvarint()),
			})
		}
		return r.err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readDecision decodes a decision result body.
func readDecision(r *payloadReader) (market.Decision, bool) {
	allocated := r.byte()
	price := r.int64()
	wait := r.uvarint()
	if r.err != nil || allocated > 1 {
		return market.Decision{}, false
	}
	return market.Decision{
		Allocated:   allocated == 1,
		PricePaid:   market.Money(price),
		WaitPeriods: int(wait),
	}, true
}
