package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// The transport benchmarks drive the same workload — one bid, one tick,
// repeat — through the wire protocol and the HTTP/JSON API over real
// loopback TCP, so the delta is pure transport overhead: framing,
// header parsing, and JSON against length prefixes and binary fields.
// BENCH_6.json recorded both at PR 6.

func benchConfig() market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     8,
			BidsPerPeriod: 1000,
			MinBid:        1,
		},
		Seed:   42,
		Shards: 8,
	}
}

func benchMarket(tb testing.TB) *market.Market {
	tb.Helper()
	m, err := market.New(benchConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, err := range []error{
		m.RegisterSeller("s"), m.UploadDataset("s", "d"), m.RegisterBuyer("b"),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// Bid amount 5 sits below every candidate price on the 10..100 grid, so
// the bid loop never wins (a win would end with already_acquired); this
// mirrors the in-process losing-bid benchmark. A Time-Shield wait still
// blocks some periods, so on error the loop ticks and retries, exactly
// like the in-process runBids helper.

func BenchmarkTransportWireBid(b *testing.B) {
	m := benchMarket(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s := NewServer(m)
	go func() { _ = s.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	requests := 0
	for i := 0; i < b.N; i++ {
		for {
			requests++
			if _, err := c.SubmitBid(ctx, "b", "d", 5); err == nil {
				break
			}
			requests++
			if _, err := c.Tick(ctx); err != nil {
				b.Fatal(err)
			}
		}
		requests++
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// BenchmarkTransportWireBidInstrumented is BenchmarkTransportWireBid
// against a metrics-instrumented server with tracing disabled (sampling
// 0) — the shape the server had before full-pipeline tracing landed.
// Request/stage histograms are hot; no request records spans, stamps
// exemplars or carries trace context. This is the baseline the tracing
// overhead in BENCH_8.json is measured against.
func BenchmarkTransportWireBidInstrumented(b *testing.B) {
	m := benchMarket(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(256, 0, 0)}
	m.Instrument(tel)
	s := NewServer(m).WithTelemetry(tel)
	go func() { _ = s.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	requests := 0
	for i := 0; i < b.N; i++ {
		for {
			requests++
			if _, err := c.SubmitBid(ctx, "b", "d", 5); err == nil {
				break
			}
			requests++
			if _, err := c.Tick(ctx); err != nil {
				b.Fatal(err)
			}
		}
		requests++
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// BenchmarkTransportWireBidTraced is BenchmarkTransportWireBidInstrumented
// with the full tracing path hot: sampling 1, so every request records
// spans, stage histogram exemplars, and commits a trace to the ring,
// and a client context propagating a sampled trace in every frame. The
// delta against BenchmarkTransportWireBidInstrumented is the cost of
// tracing itself (the metrics instrumentation is hot in both);
// BENCH_8.json recorded it against the budget at PR 8.
func BenchmarkTransportWireBidTraced(b *testing.B) {
	m := benchMarket(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	tel := obs.NewTelemetry()
	m.Instrument(tel)
	s := NewServer(m).WithTelemetry(tel)
	go func() { _ = s.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	clientTel := obs.NewTelemetry()

	b.ReportAllocs()
	b.ResetTimer()
	requests := 0
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("req-%08x", i+1)
		tr := clientTel.Tracer.Begin(id, "bench.bid")
		ctx := obs.WithRequestID(context.Background(), id)
		if tr != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		for {
			requests++
			if _, err := c.SubmitBid(ctx, "b", "d", 5); err == nil {
				break
			}
			requests++
			if _, err := c.Tick(ctx); err != nil {
				b.Fatal(err)
			}
		}
		requests++
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
		clientTel.Tracer.Finish(tr)
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// encodePayload builds one request payload (the bytes handle consumes:
// uvarint request id, kind byte, optional v2 trace field, command
// body) exactly as the client encodes it.
func encodePayload(tb testing.TB, reqID uint64, cmd command.Command, traceID string) []byte {
	tb.Helper()
	h := reqHead{id: reqID, kind: kindCommand}
	if traceID != "" {
		h.kind |= kindTraceFlag
		h.trace, h.sampled = traceID, true
	}
	c := binenc.Encoder(nil)
	h.walk(c)
	p, err := command.AppendBinary(c.B, cmd)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchBidPath measures the server-side wire bid path — handle() on
// pre-encoded bid and tick frames, exactly what ServeConn executes per
// request — without the loopback socket. Subtracting two socket-bound
// measurements to estimate a sub-microsecond tracing delta drowns the
// signal in scheduler noise; dropping the term that is identical in
// both variants (the socket) is the fair fix. The traced payloads
// carry the v2 trace field with the sampled bit, so the server adopts
// and records a trace per request, exactly as with a propagating
// client.
func benchBidPath(b *testing.B, sample int, traceID string) {
	m := benchMarket(b)
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(256, sample, 0)}
	m.Instrument(tel)
	s := NewServer(m).WithTelemetry(tel)

	bid := encodePayload(b, 1, command.SubmitBid{Buyer: "b", Dataset: "d", Amount: 5}, traceID)
	tick := encodePayload(b, 2, command.Tick{}, traceID)
	rc := &obs.RequestCtx{Context: context.Background()}
	const readDur = time.Microsecond
	var resp []byte

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr *obs.Trace
		resp, tr = handlePayload(s, rc, bid, resp[:0], readDur)
		tel.Tracer.Finish(tr)
		resp, tr = handlePayload(s, rc, tick, resp[:0], readDur)
		tel.Tracer.Finish(tr)
	}
	b.ReportMetric(2, "requests/op")
}

// BenchmarkWireBidPathInstrumented is the PR-7 shape of the server-side
// bid path: metrics hot, tracing disabled, no trace field on the wire.
func BenchmarkWireBidPathInstrumented(b *testing.B) { benchBidPath(b, 0, "") }

// BenchmarkWireBidPathTraced is the same path with full tracing: every
// request carries a sampled trace field, so the server adopts the
// trace, records the span breakdown, stamps exemplars, and commits to
// the ring. The delta against BenchmarkWireBidPathInstrumented is the
// tracing overhead BENCH_8.json recorded.
func BenchmarkWireBidPathTraced(b *testing.B) { benchBidPath(b, 1, "req-bench001") }

func BenchmarkTransportHTTPBid(b *testing.B) {
	m := benchMarket(b)
	srv := httptest.NewServer(httpapi.NewServer(m).Routes())
	defer srv.Close()
	client := srv.Client()

	post := func(path string, body []byte) error {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		var sink json.RawMessage
		return json.NewDecoder(resp.Body).Decode(&sink)
	}

	b.ReportAllocs()
	b.ResetTimer()
	bid := []byte(`{"buyer":"b","dataset":"d","amount":5}`)
	for i := 0; i < b.N; i++ {
		for {
			if err := post("/v1/bids", bid); err == nil {
				break
			}
			if err := post("/v1/tick", []byte("{}")); err != nil {
				b.Fatal(err)
			}
		}
		if err := post("/v1/tick", []byte("{}")); err != nil {
			b.Fatal(err)
		}
	}
}

// The batch variants amortize transport framing over 64 bids per frame
// (or HTTP request), measuring the per-bid floor of each transport.
func benchBatchMarket(tb testing.TB, buyers int) (*market.Market, []market.BidRequest) {
	tb.Helper()
	m := benchMarket(tb)
	reqs := make([]market.BidRequest, buyers)
	for i := range reqs {
		id := market.BuyerID(fmt.Sprintf("batch-%d", i))
		if err := m.RegisterBuyer(id); err != nil {
			tb.Fatal(err)
		}
		reqs[i] = market.BidRequest{Buyer: id, Dataset: "d", Amount: 5}
	}
	return m, reqs
}

func BenchmarkTransportWireBatch(b *testing.B) {
	const buyers = 64
	m, reqs := benchBatchMarket(b, buyers)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() { _ = NewServer(m).Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitBids(ctx, reqs); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buyers), "bids/op")
}

func BenchmarkTransportHTTPBatch(b *testing.B) {
	const buyers = 64
	m, reqs := benchBatchMarket(b, buyers)
	srv := httptest.NewServer(httpapi.NewServer(m).Routes())
	defer srv.Close()
	client := srv.Client()

	type entry struct {
		Buyer   string  `json:"buyer"`
		Dataset string  `json:"dataset"`
		Amount  float64 `json:"amount"`
	}
	entries := make([]entry, len(reqs))
	for i, r := range reqs {
		entries[i] = entry{Buyer: string(r.Buyer), Dataset: string(r.Dataset), Amount: r.Amount}
	}
	body, err := json.Marshal(map[string]any{"bids": entries})
	if err != nil {
		b.Fatal(err)
	}

	post := func(path string, body []byte) error {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		var sink json.RawMessage
		return json.NewDecoder(resp.Body).Decode(&sink)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post("/v1/bids/batch", body); err != nil {
			b.Fatal(err)
		}
		if err := post("/v1/tick", []byte("{}")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buyers), "bids/op")
}
