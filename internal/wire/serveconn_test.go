package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// These tests pin what the one-goroutine serving loop could get wrong:
// the input-drained flush rule, the reused payload buffer, the reused
// request context, and the replication conversion's watcher.

// rawClient is the client end of a served net.Pipe after the handshake,
// for tests that need to choose how frames are grouped into writes.
type rawClient struct {
	net.Conn
	br     *bufio.Reader
	served chan error // ServeConn's result
}

// serveRaw serves s on one end of a net.Pipe (wrapped by wrap, when
// given) and handshakes on the other. The pipe is synchronous, so one
// client Write is one server Read: a burst arrives together or not at
// all.
func serveRaw(t *testing.T, s *Server, wrap func(net.Conn) net.Conn) *rawClient {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	if wrap != nil {
		serverEnd = wrap(serverEnd)
	}
	c := &rawClient{Conn: clientEnd, br: bufio.NewReader(clientEnd), served: make(chan error, 1)}
	go func() { c.served <- s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close() })
	if err := clientEnd.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := clientEnd.Write([]byte{'S', 'H', 'W', Version}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.br.Discard(4); err != nil { // the server's answer
		t.Fatal(err)
	}
	return c
}

// frameBytes returns payload as one length-prefixed frame.
func frameBytes(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// commandFrame is one command request frame, with the v2 trace field
// (sampled) when traceID is set.
func commandFrame(t *testing.T, id uint64, cmd command.Command, traceID string) []byte {
	t.Helper()
	return frameBytes(encodePayload(t, id, cmd, traceID))
}

// burst delivers frames in one Write. net.Pipe blocks the writer until
// the server has read everything, and the server may be blocked writing
// responses nobody reads yet, so the write runs on its own goroutine; a
// write that fails shows as the response that never comes.
// journalEvents returns every event of a journal.
func journalEvents(t *testing.T, log io.Reader) []journal.Event {
	t.Helper()
	var events []journal.Event
	if _, _, err := journal.Scan(log, 1, func(e journal.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return events
}

func (c *rawClient) burst(frames ...[]byte) {
	go func() { _, _ = c.Write(bytes.Join(frames, nil)) }()
}

// response splits a response payload into its head and a decoder over
// the body.
func response(payload []byte) (respHead, *binenc.Codec) {
	var h respHead
	r := binenc.Decoder(payload)
	h.walk(r)
	return h, r
}

// expect reads the next response and checks its id and status,
// returning the decoder over the result body.
func (c *rawClient) expect(t *testing.T, id uint64, status byte) *binenc.Codec {
	t.Helper()
	payload, err := readFrame(c.br, nil, MaxFrame)
	if err != nil {
		t.Fatalf("response %d: %v", id, err)
	}
	h, r := response(payload)
	if r.Err() != nil || h.id != id || h.status != status {
		t.Fatalf("response carries id %d status %d (%x), want id %d status %d", h.id, h.status, payload, id, status)
	}
	return r
}

// readError reads an error envelope.
func readError(r *binenc.Codec) *apierr.APIError {
	var err error
	walkError(r, &err)
	return err.(*apierr.APIError)
}

// readInt reads one Uint result body.
func readInt(r *binenc.Codec) (int, error) {
	var n int
	binenc.Uint(r, &n)
	return n, r.Done()
}

// countingConn counts the Write calls made through it, telling onWrite
// (when set) the count as each one starts.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	onWrite func(n int64)
}

func (c *countingConn) Write(p []byte) (int, error) {
	if n := c.writes.Add(1); c.onWrite != nil {
		c.onWrite(n)
	}
	return c.Conn.Write(p)
}

// TestFlushBatching pins the flush rule: requests that arrive together
// are answered in order with one write, and a lone request is answered
// at once — the server does not wait for a second frame to flush the
// first response.
func TestFlushBatching(t *testing.T) {
	var counted *countingConn
	c := serveRaw(t, NewServer(testMarket(t)), func(nc net.Conn) net.Conn {
		counted = &countingConn{Conn: nc}
		return counted
	})
	next := uint64(1)
	for _, n := range []int{1, 2, 64, 200, 1} {
		before := counted.writes.Load()
		frames := make([][]byte, n)
		for i := range frames {
			frames[i] = frameBytes(append(binary.AppendUvarint(nil, next+uint64(i)), kindQuery, qPeriod))
		}
		c.burst(frames...)
		for i := 0; i < n; i++ {
			if p, err := readInt(c.expect(t, next+uint64(i), statusOK)); p != 0 || err != nil {
				t.Fatalf("burst of %d: response %d is not period 0", n, i)
			}
		}
		if got := counted.writes.Load() - before; got != 1 {
			t.Errorf("burst of %d answered with %d writes, want 1", n, got)
		}
		next += uint64(n)
	}
}

// TestPayloadBufferDoesNotAlias pipelines winning bids from different
// buyers on different datasets, each frame longer or shorter than the
// one before it, through the connection's one payload buffer: the sale
// log and the journal must show every record's own ids. The buffer is
// overwritten by the next frame, so anything that kept a sub-slice of
// it would read a later request's bytes.
func TestPayloadBufferDoesNotAlias(t *testing.T) {
	var sink bytes.Buffer
	jm, err := journal.NewMarket(testConfig(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	type sale struct{ buyer, dataset string }
	var want []sale
	for i, n := range []int{1, 40, 3, 90, 2, 17, 64, 5} {
		s := sale{fmt.Sprintf("b%d-%s", i, strings.Repeat("x", n)), fmt.Sprintf("d%d-%s", i, strings.Repeat("y", 97-n))}
		want = append(want, s)
		for _, err := range []error{
			jm.RegisterSeller(market.SellerID("s" + s.dataset)),
			jm.UploadDataset(market.SellerID("s"+s.dataset), market.DatasetID(s.dataset)),
			jm.RegisterBuyer(market.BuyerID(s.buyer)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	c := serveRaw(t, NewServer(jm), nil)
	frames := make([][]byte, len(want))
	for i, s := range want {
		// 150 clears every candidate price on the test grid: a sale.
		frames[i] = commandFrame(t, uint64(i+1), command.SubmitBid{
			Buyer: market.BuyerID(s.buyer), Dataset: market.DatasetID(s.dataset), Amount: 150}, "")
	}
	c.burst(frames...)
	for i := range want {
		var d market.Decision
		r := c.expect(t, uint64(i+1), statusOK)
		if walkDecision(r, &d); r.Done() != nil || !d.Allocated {
			t.Fatalf("bid %d did not win: %+v", i, d)
		}
	}

	txs := jm.Transactions()
	if len(txs) != len(want) {
		t.Fatalf("%d sales, want %d", len(txs), len(want))
	}
	for i, tx := range txs {
		if got := (sale{string(tx.Buyer), string(tx.Dataset)}); got != want[i] {
			t.Errorf("sale %d is %v, want %v", i, got, want[i])
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	events := journalEvents(t, bytes.NewReader(sink.Bytes()))
	var journaled []sale
	for _, e := range events {
		if e.Op == journal.OpBid {
			journaled = append(journaled, sale{e.Buyer, e.Dataset})
		}
	}
	if fmt.Sprint(journaled) != fmt.Sprint(want) {
		t.Errorf("journal replays bids %v, want %v", journaled, want)
	}
}

// TestRequestContextDoesNotLeakIdentity drives several connections at
// once, each pipelining registrations and then bids that alternate
// between carrying a v2 trace field and carrying none, into a
// group-commit journal — so one connection's reused request context, and
// the bid body still in its payload buffer, are read by another
// connection's goroutine (the group leader) while their owner waits. Run
// under -race this proves the leader is done with a member's context
// and bytes before that member's connection rebinds the one and
// overwrites the other. Every journal record must be its own request's:
// its payload (buyer, dataset, amount), and its trace — the propagated
// ID where there was one, a freshly minted one — never the previous
// request's — where there was not. An uninstrumented server journals no
// trace at all, whatever the client sent (the torture harness's
// byte-identity with in-process journals relies on it).
func TestRequestContextDoesNotLeakIdentity(t *testing.T) {
	const conns, perConn = 4, 24
	type request struct {
		dataset string
		amount  float64
		trace   string // propagated; "" = none sent
	}
	run := func(t *testing.T, instrumented bool) {
		var sink bytes.Buffer
		jm, err := journal.NewMarket(testConfig(), &sink, journal.WithGroupCommit(200*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := jm.RegisterSeller("seller"); err != nil {
			t.Fatal(err)
		}
		s := NewServer(jm)
		if instrumented {
			s.WithTelemetry(obs.NewTelemetry())
		}
		sent := map[journal.Op]map[string]request{journal.OpRegisterBuyer: {}, journal.OpBid: {}} // by buyer
		var wg sync.WaitGroup
		for k := 0; k < conns; k++ {
			dataset := fmt.Sprintf("dataset-%d", k)
			if err := jm.UploadDataset("seller", market.DatasetID(dataset)); err != nil {
				t.Fatal(err)
			}
			c := serveRaw(t, s, nil)
			frames := make([][]byte, 2*perConn)
			for i := range frames {
				buyer := fmt.Sprintf("buyer-%d-%d", k, i%perConn)
				var cmd command.Command = command.RegisterBuyer{Buyer: market.BuyerID(buyer)}
				req, op := request{}, journal.OpRegisterBuyer
				if i >= perConn {
					req, op = request{dataset: dataset, amount: float64(1 + i)}, journal.OpBid
					cmd = command.SubmitBid{Buyer: market.BuyerID(buyer), Dataset: market.DatasetID(dataset), Amount: req.amount}
				}
				if i%2 == 0 {
					req.trace = fmt.Sprintf("req-peer-%d-%d", k, i)
				}
				sent[op][buyer] = req
				frames[i] = commandFrame(t, uint64(i+1), cmd, req.trace)
			}
			c.burst(frames...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range frames {
					payload, err := readFrame(c.br, nil, MaxFrame)
					if h, _ := response(payload); err != nil || h.id != uint64(i+1) || h.status != statusOK {
						t.Errorf("response %d: %v %x", i+1, err, payload)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := jm.Close(); err != nil {
			t.Fatal(err)
		}
		events := journalEvents(t, bytes.NewReader(sink.Bytes()))
		minted := map[string]bool{}
		records := map[journal.Op]int{}
		for _, e := range events {
			byBuyer, ok := sent[e.Op]
			if !ok {
				continue
			}
			records[e.Op]++
			req, known := byBuyer[e.Buyer]
			switch {
			case !known || e.Dataset != req.dataset || e.Amount != req.amount:
				t.Errorf("journal holds a %s of %q on %q at %v nobody sent", e.Op, e.Buyer, e.Dataset, e.Amount)
			case !instrumented:
				if e.Trace != "" {
					t.Errorf("uninstrumented server journaled trace %q for %s", e.Trace, e.Buyer)
				}
			case req.trace != "":
				if e.Trace != req.trace {
					t.Errorf("%s's %s journaled under trace %q, want its own %q", e.Buyer, e.Op, e.Trace, req.trace)
				}
			case !strings.HasPrefix(e.Trace, "req-") || strings.HasPrefix(e.Trace, "req-peer-") || minted[e.Trace]:
				t.Errorf("%s's %s sent no trace and journaled under %q, want a freshly minted ID", e.Buyer, e.Op, e.Trace)
			default:
				minted[e.Trace] = true
			}
		}
		for op := range sent {
			if records[op] != conns*perConn {
				t.Errorf("journal holds %d %s records, want %d", records[op], op, conns*perConn)
			}
		}
	}
	t.Run("instrumented", func(t *testing.T) { run(t, true) })
	t.Run("uninstrumented", func(t *testing.T) { run(t, false) })
}

// TestReplicationConversionEndsWithItsWatcher pins the one place a
// connection starts a goroutine. Once a replicate request converts the
// connection the server only writes, and a watcher owns the read side:
// a peer close ends the stream cleanly, a client frame ends it with the
// protocol error, and in both cases the watcher has exited by the time
// ServeConn returns.
func TestReplicationConversionEndsWithItsWatcher(t *testing.T) {
	subscribe := frameBytes([]byte{1, kindReplicate, 0})
	for name, tc := range map[string]struct {
		end     func(c *rawClient) error
		wantErr string // "" = ServeConn returns nil
	}{
		"peer close": {end: func(c *rawClient) error { return c.Close() }},
		"client frame": {
			end: func(c *rawClient) error {
				_, err := c.Write(frameBytes([]byte{2, kindQuery, qPing}))
				return err
			},
			wantErr: "unexpected frame from replication subscriber",
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewServer(testMarket(t)).
				WithReplication(scriptedSource{recs: []RepRecord{{Seq: 1, Payload: AppendRecordFrame(nil, 1, []byte{9})}}}).
				WithHeartbeatInterval(time.Hour)
			c := serveRaw(t, s, nil)
			c.burst(subscribe)
			var sh subHead
			r := c.expect(t, 1, statusOK)
			if sh.walk(r); r.Done() != nil || sh != (subHead{}) {
				t.Fatal("subscribe response is not tail mode from seq 0")
			}
			if _, err := readFrame(c.br, nil, MaxFrame); err != nil { // the scripted record
				t.Fatal(err)
			}
			if err := tc.end(c); err != nil {
				t.Fatal(err)
			}
			err := <-c.served
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("ServeConn returned %v, want %q", err, tc.wantErr)
			}
			// No settle: serveReplication waits for its watcher.
			for _, g := range serverGoroutines(0) {
				if strings.Contains(g, "serveReplication") {
					t.Errorf("replication goroutine outlived ServeConn:\n%s", g)
				}
			}
		})
	}
}

// TestWriteErrorMidBurstEndsTheConnection is the shape that leaked a
// goroutine when a reader fed the executing loop through a 64-slot
// channel: far more than 64 frames sent, the client never reads, and
// execution ends on the write error its hangup causes (there, once the
// reader had filled the channel, it stayed parked on its send).
// ServeConn must return that error; the package's goroutine census
// (TestMain) proves nothing stays behind it.
func TestWriteErrorMidBurstEndsTheConnection(t *testing.T) {
	// A 16-byte write buffer pushes responses to the socket long before
	// the burst is drained, where they block: nobody reads them. The
	// server's second write (the first is its handshake answer) is that
	// moment.
	stuck := make(chan struct{})
	s := NewServer(testMarket(t))
	s.bufSize = 16
	c := serveRaw(t, s, func(nc net.Conn) net.Conn {
		return &countingConn{Conn: nc, onWrite: func(n int64) {
			if n == 2 {
				close(stuck)
			}
		}}
	})
	frames := make([][]byte, 500)
	for i := range frames {
		frames[i] = frameBytes(append(binary.AppendUvarint(nil, uint64(i+1)), kindQuery, qDatasets))
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write(bytes.Join(frames, nil))
		wrote <- err
	}()
	<-stuck
	c.Close()
	<-wrote
	if err := <-c.served; err == nil {
		t.Fatal("ServeConn returned nil after a failed response write")
	}
}

// TestMalformedHeadsAreRefused: a request head the client's encoder
// would not write — its id a padded varint, its trace's sampled byte
// neither 0 nor 1 — is refused with a bad_request envelope naming the
// part, not read as a second spelling of a valid head; the id is echoed
// where it was readable, and the connection serves the next request.
func TestMalformedHeadsAreRefused(t *testing.T) {
	c := serveRaw(t, NewServer(testMarket(t)), nil)
	for _, tc := range []struct {
		payload []byte
		id      uint64
		msg     string
	}{
		{[]byte{0x81, 0x00, kindQuery, qPing}, 0, "malformed request header"},
		{[]byte{5, kindQuery | kindTraceFlag, 1, 't', 2, qPing}, 5, "malformed trace field"},
	} {
		c.burst(frameBytes(tc.payload))
		if e := readError(c.expect(t, tc.id, statusErr)); e.Code != apierr.CodeBadRequest || e.Message != tc.msg {
			t.Fatalf("%x answered %s %q, want %s %q", tc.payload, e.Code, e.Message, apierr.CodeBadRequest, tc.msg)
		}
	}
	c.burst(frameBytes([]byte{6, kindQuery, qPing}))
	if r := c.expect(t, 6, statusOK); r.Done() != nil {
		t.Fatalf("ping after the refusals: %v", r.Err())
	}
}

// TestEncodeFailureLeavesConnUsable pins that a command the codec
// refuses is reported before a byte reaches the stream: the error wraps
// command.ErrMalformed, the server sees nothing, and the same
// connection serves the next call.
func TestEncodeFailureLeavesConnUsable(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	counted := &countingConn{Conn: clientEnd}
	s := NewServer(testMarket(t))
	go func() { _ = s.ServeConn(serverEnd) }()
	c, err := NewConn(counted)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	before := counted.writes.Load()
	if err := c.apply(ctx, command.BidBatch{}, nil); !errors.Is(err, command.ErrMalformed) {
		t.Fatalf("empty batch returned %v, want an error wrapping command.ErrMalformed", err)
	}
	if got := counted.writes.Load() - before; got != 0 {
		t.Fatalf("a refused command still wrote to the stream (%d writes)", got)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after an encode failure: %v", err)
	}
}
