package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

func testConfig() market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 8,
			MinBid:        1,
		},
		Seed: 7,
	}
}

func testMarket(t testing.TB) *market.Market {
	t.Helper()
	m, err := market.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pipeClient starts a server over b on one end of a net.Pipe and
// returns a client Conn on the other.
func pipeClient(t testing.TB, s *Server) *Conn {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.ServeConn(serverEnd)
	}()
	c, err := NewConn(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

func TestRoundTrip(t *testing.T) {
	m := testMarket(t)
	c := pipeClient(t, NewServer(m))
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.RegisterSeller(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadDataset(ctx, "s", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadDataset(ctx, "s", "d2"); err != nil {
		t.Fatal(err)
	}
	if err := c.ComposeDataset(ctx, "combo", "d1", "d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterBuyer(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	d, err := c.SubmitBid(ctx, "b", "d1", 55)
	if err != nil {
		t.Fatal(err)
	}

	p, err := c.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Period(); got != p {
		t.Fatalf("tick returned %d, market at %d", p, got)
	}

	ids, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("datasets = %v, want 3", ids)
	}

	st, err := c.Stats(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	mst, _ := m.Stats("d1")
	if st != mst {
		t.Fatalf("stats over wire %+v != in-process %+v", st, mst)
	}

	bal, err := c.SellerBalance(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	mbal, _ := m.SellerBalance("s")
	if bal != mbal {
		t.Fatalf("balance over wire %v != in-process %v", bal, mbal)
	}

	wait, err := c.WaitRemaining(ctx, "b", "d1")
	if err != nil {
		t.Fatal(err)
	}
	mwait, _ := m.WaitRemaining("b", "d1")
	if wait != mwait {
		t.Fatalf("wait over wire %d != in-process %d", wait, mwait)
	}

	txs, err := c.Transactions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mtxs := m.Transactions()
	if len(txs) != len(mtxs) {
		t.Fatalf("transactions over wire %v != in-process %v", txs, mtxs)
	}
	for i := range txs {
		if txs[i] != mtxs[i] {
			t.Fatalf("tx %d over wire %+v != in-process %+v", i, txs[i], mtxs[i])
		}
	}
	if !d.Allocated && d.WaitPeriods == 0 {
		t.Fatalf("losing decision with no wait: %+v", d)
	}
}

// TestErrorsMirrorInProcess pins the error contract: a failed operation
// over the wire yields an *apierr.APIError whose code matches Classify
// and whose Error() is byte-identical to the in-process error string.
func TestErrorsMirrorInProcess(t *testing.T) {
	m := testMarket(t)
	twin := testMarket(t)
	c := pipeClient(t, NewServer(m))
	ctx := context.Background()

	for _, setup := range []func() error{
		func() error { return m.RegisterSeller("s") },
		func() error { return twin.RegisterSeller("s") },
		func() error { return m.UploadDataset("s", "d") },
		func() error { return twin.UploadDataset("s", "d") },
		func() error { return m.RegisterBuyer("b") },
		func() error { return twin.RegisterBuyer("b") },
	} {
		if err := setup(); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name     string
		wire     func() error
		local    func() error
		wantCode string
	}{
		{"unknown buyer",
			func() error { _, err := c.SubmitBid(ctx, "ghost", "d", 5); return err },
			func() error { _, err := twin.SubmitBid("ghost", "d", 5); return err },
			apierr.CodeUnknownBuyer},
		{"unknown dataset",
			func() error { _, err := c.SubmitBid(ctx, "b", "ghost", 5); return err },
			func() error { _, err := twin.SubmitBid("b", "ghost", 5); return err },
			apierr.CodeUnknownDataset},
		{"bad bid",
			func() error { _, err := c.SubmitBid(ctx, "b", "d", -1); return err },
			func() error { _, err := twin.SubmitBid("b", "d", -1); return err },
			apierr.CodeBadBid},
		{"duplicate seller",
			func() error { return c.RegisterSeller(ctx, "s") },
			func() error { return twin.RegisterSeller("s") },
			apierr.CodeDuplicateID},
		{"unknown stats",
			func() error { _, err := c.Stats(ctx, "ghost"); return err },
			func() error { _, err := twin.Stats("ghost"); return err },
			apierr.CodeUnknownDataset},
	}
	for _, tc := range cases {
		werr := tc.wire()
		lerr := tc.local()
		if werr == nil || lerr == nil {
			t.Fatalf("%s: wire err %v, local err %v", tc.name, werr, lerr)
		}
		var api *apierr.APIError
		if !errors.As(werr, &api) {
			t.Fatalf("%s: wire error is %T, want *apierr.APIError", tc.name, werr)
		}
		if api.Code != tc.wantCode {
			t.Fatalf("%s: code %q, want %q", tc.name, api.Code, tc.wantCode)
		}
		if werr.Error() != lerr.Error() {
			t.Fatalf("%s: wire message %q != in-process %q", tc.name, werr.Error(), lerr.Error())
		}
	}

	// Opcode 9 is assigned to no command.
	unassigned := func(req []byte) ([]byte, error) { return append(req, 9, 1, 'b', 1, 'd'), nil }
	if err := c.roundTrip(ctx, kindCommand, unassigned, nil); err == nil {
		t.Fatal("opcode 9 over wire succeeded, want error")
	} else {
		var api *apierr.APIError
		if !errors.As(err, &api) || api.Code != apierr.CodeBadRequest {
			t.Fatalf("opcode 9 error %v, want bad_request envelope", err)
		}
	}
}

func TestBatchPerEntryEnvelopes(t *testing.T) {
	m := testMarket(t)
	c := pipeClient(t, NewServer(m))
	ctx := context.Background()

	for _, err := range []error{
		m.RegisterSeller("s"), m.UploadDataset("s", "d"), m.RegisterBuyer("b"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.SubmitBids(ctx, []market.BidRequest{
		{Buyer: "b", Dataset: "d", Amount: 50},
		{Buyer: "ghost", Dataset: "d", Amount: 50},
		{Buyer: "b", Dataset: "d", Amount: 50}, // same period: bid_too_soon
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(res))
	}
	if res[0].Err != nil {
		t.Fatalf("entry 0 failed: %v", res[0].Err)
	}
	var api *apierr.APIError
	if !errors.As(res[1].Err, &api) || api.Code != apierr.CodeUnknownBuyer {
		t.Fatalf("entry 1 error %v, want unknown_buyer", res[1].Err)
	}
	if !errors.As(res[2].Err, &api) || api.Code != apierr.CodeBidTooSoon {
		t.Fatalf("entry 2 error %v, want bid_too_soon", res[2].Err)
	}
}

// TestPipelining streams a burst of raw frames before reading any
// response and checks every response comes back, in order, with the
// matching request id.
func TestPipelining(t *testing.T) {
	m := testMarket(t)
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	s := NewServer(m)
	clientEnd, serverEnd := net.Pipe()
	go func() { _ = s.ServeConn(serverEnd) }()
	defer clientEnd.Close()

	bw := bufio.NewWriter(clientEnd)
	br := bufio.NewReader(clientEnd)
	hello := [4]byte{'S', 'H', 'W', Version}
	if _, err := bw.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var answer [4]byte
	if _, err := io.ReadFull(br, answer[:]); err != nil {
		t.Fatal(err)
	}

	const depth = 40
	var wrote sync.WaitGroup
	wrote.Add(1)
	go func() {
		defer wrote.Done()
		for i := 1; i <= depth; i++ {
			enc, err := command.EncodeBinary(command.RegisterBuyer{Buyer: market.BuyerID(string(rune('A' + i)))})
			if err != nil {
				t.Error(err)
				return
			}
			payload := binary.AppendUvarint(nil, uint64(i))
			payload = append(payload, kindCommand)
			payload = append(payload, enc...)
			if err := writeFrame(bw, payload, MaxFrame); err != nil {
				t.Error(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			t.Error(err)
		}
	}()

	for i := 1; i <= depth; i++ {
		payload, err := readFrame(br, nil, MaxFrame)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		h, r := response(payload)
		if r.Err() != nil {
			t.Fatalf("response %d: malformed", i)
		}
		if h.id != uint64(i) {
			t.Fatalf("response %d carries id %d", i, h.id)
		}
		if h.status != statusOK {
			t.Fatalf("response %d: status %d", i, h.status)
		}
	}
	wrote.Wait()
}

func TestHandshakeRejectsOldVersion(t *testing.T) {
	s := NewServer(testMarket(t))
	clientEnd, serverEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- s.ServeConn(serverEnd) }()
	defer clientEnd.Close()

	hello := [4]byte{'S', 'H', 'W', 0}
	if _, err := clientEnd.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var answer [4]byte
	if _, err := io.ReadFull(clientEnd, answer[:]); err != nil {
		t.Fatal(err)
	}
	if answer[3] != 0 {
		t.Fatalf("server accepted version 0 with %d", answer[3])
	}
	if err := <-errc; !errors.Is(err, ErrHandshake) {
		t.Fatalf("server returned %v, want ErrHandshake", err)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	s := NewServer(testMarket(t))
	clientEnd, serverEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- s.ServeConn(serverEnd) }()
	defer clientEnd.Close()

	if _, err := clientEnd.Write([]byte("GET ")); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrHandshake) {
		t.Fatalf("server returned %v, want ErrHandshake", err)
	}
}

// TestMalformedFrameKeepsConnection sends a garbage request payload and
// checks the connection survives: the bad frame earns an error envelope
// and the next request still works.
func TestMalformedFrameKeepsConnection(t *testing.T) {
	m := testMarket(t)
	c := pipeClient(t, NewServer(m))
	ctx := context.Background()

	if err := c.roundTrip(ctx, 0xFF, func(req []byte) ([]byte, error) {
		return append(req, 0xDE, 0xAD), nil
	}, nil); err == nil {
		t.Fatal("garbage request succeeded")
	} else {
		var api *apierr.APIError
		if !errors.As(err, &api) || api.Code != apierr.CodeBadRequest {
			t.Fatalf("garbage request error %v, want bad_request", err)
		}
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("connection dead after malformed frame: %v", err)
	}
}

func TestOversizedFrameClosesConnection(t *testing.T) {
	s := NewServer(testMarket(t))
	clientEnd, serverEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- s.ServeConn(serverEnd) }()
	defer clientEnd.Close()

	hello := [4]byte{'S', 'H', 'W', Version}
	if _, err := clientEnd.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var answer [4]byte
	if _, err := io.ReadFull(clientEnd, answer[:]); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := clientEnd.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("server returned %v, want ErrFrameTooLarge", err)
	}
}

// TestConcurrentClients drives one server from many goroutines sharing
// one Conn plus several private Conns, under the race detector.
func TestConcurrentClients(t *testing.T) {
	m := testMarket(t)
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	s := NewServer(m).WithTelemetry(obs.NewTelemetry())

	shared := pipeClient(t, s)
	conns := []*Conn{shared, pipeClient(t, s), shared, pipeClient(t, s)}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < len(conns); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := conns[g]
			buyer := market.BuyerID(string(rune('a' + g)))
			if _, err := c.RegisterBuyer(ctx, buyer); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := c.SubmitBid(ctx, buyer, "d", 30); err != nil {
					var api *apierr.APIError
					if !errors.As(err, &api) {
						t.Errorf("bid: %v", err)
						return
					}
				}
				if _, err := c.Period(ctx); err != nil {
					t.Errorf("period: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// byteCounter counts the bytes a client reads and writes through it.
type byteCounter struct {
	net.Conn
	read, wrote int
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote += n
	return n, err
}

// TestFramesBiggerThanTheBuffer: over loopback TCP, where client and
// server buffer 4 KiB each way, a 1 024-bid batch request and a
// Transactions reply over 64 KiB each round-trip exactly — every result
// and every sale as a twin market answers in process — though neither
// frame fits a buffer.
func TestFramesBiggerThanTheBuffer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m, twin := testMarket(t), testMarket(t)
	go func() { _ = NewServer(m).Serve(l) }()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	counted := &byteCounter{Conn: nc}
	c, err := NewConn(counted)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.RegisterSeller(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if err := twin.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	datasets := []market.DatasetID{"d1", "d2", "d3", "d4"}
	for _, d := range datasets {
		if err := c.UploadDataset(ctx, "s", d); err != nil {
			t.Fatal(err)
		}
		if err := twin.UploadDataset("s", d); err != nil {
			t.Fatal(err)
		}
	}
	bids := make([]market.BidRequest, command.MaxBatchBids)
	for i := range bids {
		bids[i].Buyer = market.BuyerID(fmt.Sprintf("buyer-%04d", i))
		if _, err := c.RegisterBuyer(ctx, bids[i].Buyer); err != nil {
			t.Fatal(err)
		}
		if err := twin.RegisterBuyer(bids[i].Buyer); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range datasets {
		for i := range bids {
			bids[i].Dataset, bids[i].Amount = d, float64(5+i%150) // wins and losses
		}
		bids[7].Buyer = "nobody" // and a refusal
		wrote := counted.wrote
		got, err := c.SubmitBids(ctx, bids)
		if err != nil {
			t.Fatal(err)
		}
		if n := counted.wrote - wrote; n <= connBufferSize {
			t.Fatalf("a %d-bid batch request took %d bytes: not over the %d-byte buffer", len(bids), n, connBufferSize)
		}
		want := twin.SubmitBids(bids)
		for i := range want {
			if got[i].Decision != want[i].Decision || fmt.Sprint(got[i].Err) != fmt.Sprint(want[i].Err) {
				t.Fatalf("%s bid %d: %+v, want %+v", d, i, got[i], want[i])
			}
		}
		bids[7].Buyer = "buyer-0007"
	}

	read := counted.read
	got, err := c.Transactions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := counted.read - read; n <= streamBufferSize {
		t.Fatalf("a reply of %d sales took %d bytes: not over 64 KiB", len(got), n)
	}
	if want := twin.Transactions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d transactions over the wire, %d in process: they differ", len(got), len(want))
	}
}
