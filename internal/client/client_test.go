package client

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/wire"
)

func testMarket(t testing.TB) *market.Market {
	t.Helper()
	m, err := market.New(market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 8,
			MinBid:        1,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// transports returns one client per transport, each backed by its own
// identically-seeded market, so the parity test can drive the same
// operation sequence through both and compare everything.
func transports(t *testing.T) map[string]Client {
	return gatedTransports(t, "")
}

// gatedTransports is transports with both servers behind the operator
// gate of token ("" leaves it open); the clients carry no token.
func gatedTransports(t *testing.T, token string) map[string]Client {
	return servedTransports(t, token, testMarket)
}

// servedTransports is gatedTransports with each server's market built by
// newMarket.
func servedTransports(t *testing.T, token string, newMarket func(testing.TB) *market.Market) map[string]Client {
	t.Helper()
	out := make(map[string]Client)

	httpSrv := httptest.NewServer(httpapi.NewServer(newMarket(t)).WithOperatorToken(token).Routes())
	t.Cleanup(httpSrv.Close)
	hc, err := Dial(httpSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	out["http"] = hc

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = wire.NewServer(newMarket(t)).WithOperatorGate(apierr.NewGate(false, token)).Serve(l) }()
	wc, err := Dial("wire://" + l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	out["wire"] = wc

	return out
}

// TestTransportParity drives the identical lifecycle through both
// transports against identically-seeded markets and requires identical
// decisions, stats, balances, transactions, and error codes + messages.
func TestTransportParity(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		decisions []market.Decision
		errs      []string
		codes     []string
		stats     market.DatasetStats
		balance   market.Money
		txs       []market.Transaction
		period    int
		datasets  []market.DatasetID
	}
	results := make(map[string]outcome)

	for name, c := range transports(t) {
		var o outcome
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("%s: ping: %v", name, err)
		}
		if err := c.RegisterSeller(ctx, "s"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.UploadDataset(ctx, "s", "d1"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.UploadDataset(ctx, "s", "d2"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.ComposeDataset(ctx, "combo", "d1", "d2"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.RegisterBuyer(ctx, "b"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		record := func(d market.Decision, err error) {
			o.decisions = append(o.decisions, d)
			var api *apierr.APIError
			switch {
			case err == nil:
				o.errs = append(o.errs, "")
				o.codes = append(o.codes, "")
			case errors.As(err, &api):
				o.errs = append(o.errs, api.Message)
				o.codes = append(o.codes, api.Code)
			default:
				t.Fatalf("%s: error %v is not an APIError", name, err)
			}
		}
		record(c.SubmitBid(ctx, "b", "d1", 95))
		record(c.SubmitBid(ctx, "b", "d1", 95))    // same period or already acquired
		record(c.SubmitBid(ctx, "ghost", "d2", 5)) // unknown buyer
		record(c.SubmitBid(ctx, "b", "ghost", 5))  // unknown dataset
		record(c.SubmitBid(ctx, "b", "d2", -3))    // bad bid
		if _, err := c.Tick(ctx); err != nil {
			t.Fatalf("%s: tick: %v", name, err)
		}
		record(c.SubmitBid(ctx, "b", "combo", 2)) // low bid on derived

		batch, err := c.SubmitBids(ctx, []market.BidRequest{
			{Buyer: "b", Dataset: "d2", Amount: 60},
			{Buyer: "ghost", Dataset: "d2", Amount: 60},
		})
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		for _, res := range batch {
			record(res.Decision, res.Err)
		}
		// One bid past the cap refuses the whole batch, on both transports
		// with the same code and message, and applies none of it.
		big := make([]market.BidRequest, command.MaxBatchBids+1)
		for i := range big {
			big[i] = market.BidRequest{Buyer: "b", Dataset: "d2", Amount: 1}
		}
		batch, err = c.SubmitBids(ctx, big)
		if len(batch) != 0 {
			t.Errorf("%s: a %d-bid batch returned %d results", name, len(big), len(batch))
		}
		record(market.Decision{}, err)

		if o.period, err = c.Period(ctx); err != nil {
			t.Fatalf("%s: period: %v", name, err)
		}
		if o.datasets, err = c.Datasets(ctx); err != nil {
			t.Fatalf("%s: datasets: %v", name, err)
		}
		if o.stats, err = c.Stats(ctx, "d1"); err != nil {
			t.Fatalf("%s: stats: %v", name, err)
		}
		if o.balance, err = c.SellerBalance(ctx, "s"); err != nil {
			t.Fatalf("%s: balance: %v", name, err)
		}
		if o.txs, err = c.Transactions(ctx); err != nil {
			t.Fatalf("%s: transactions: %v", name, err)
		}
		results[name] = o
	}

	h, w := results["http"], results["wire"]
	if len(h.decisions) != len(w.decisions) {
		t.Fatalf("decision counts differ: http %d, wire %d", len(h.decisions), len(w.decisions))
	}
	for i := range h.decisions {
		if h.decisions[i] != w.decisions[i] {
			t.Errorf("decision %d: http %+v, wire %+v", i, h.decisions[i], w.decisions[i])
		}
		if h.errs[i] != w.errs[i] {
			t.Errorf("error %d: http %q, wire %q", i, h.errs[i], w.errs[i])
		}
		if h.codes[i] != w.codes[i] {
			t.Errorf("code %d: http %q, wire %q", i, h.codes[i], w.codes[i])
		}
	}
	if h.period != w.period {
		t.Errorf("period: http %d, wire %d", h.period, w.period)
	}
	if len(h.datasets) != len(w.datasets) {
		t.Errorf("datasets: http %v, wire %v", h.datasets, w.datasets)
	}
	if h.stats != w.stats {
		t.Errorf("stats: http %+v, wire %+v", h.stats, w.stats)
	}
	if h.balance != w.balance {
		t.Errorf("balance: http %v, wire %v", h.balance, w.balance)
	}
	if len(h.txs) != len(w.txs) {
		t.Fatalf("transactions: http %v, wire %v", h.txs, w.txs)
	}
	for i := range h.txs {
		if h.txs[i] != w.txs[i] {
			t.Errorf("tx %d: http %+v, wire %+v", i, h.txs[i], w.txs[i])
		}
	}
}

// TestTransportParityOperatorGate: with an operator token configured,
// a stats read without it is refused on both transports with the same
// code and message — the wire protocol carries no credentials, so over
// wire a gated server never serves stats.
func TestTransportParityOperatorGate(t *testing.T) {
	ctx := context.Background()
	refusals := map[string]apierr.APIError{}
	for name, c := range gatedTransports(t, "op-secret") {
		if err := c.RegisterSeller(ctx, "s"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.UploadDataset(ctx, "s", "d1"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := c.Stats(ctx, "d1")
		var api *apierr.APIError
		if !errors.As(err, &api) || api.Code != apierr.CodeUnauthorized {
			t.Fatalf("%s: stats without the operator token = %+v, %v; want %s", name, st, err, apierr.CodeUnauthorized)
		}
		refusals[name] = *api
	}
	if refusals["http"] != refusals["wire"] {
		t.Errorf("refusals differ: http %+v, wire %+v", refusals["http"], refusals["wire"])
	}
}

// TestTransportParityClockExhausted: a tick at the clock's last period
// is refused on both transports with the same code and message —
// internal, as no apierr code names command.ErrClockExhausted — and the
// period stays where it was.
func TestTransportParityClockExhausted(t *testing.T) {
	ctx := context.Background()
	lastPeriod := func(tb testing.TB) *market.Market {
		s := testMarket(tb).Snapshot()
		s.Clock = command.MaxPeriod - 1
		m, err := market.RestoreSnapshot(s)
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	refusals := map[string]apierr.APIError{}
	for name, c := range servedTransports(t, "", lastPeriod) {
		p, err := c.Tick(ctx)
		var api *apierr.APIError
		if !errors.As(err, &api) || api.Code != apierr.CodeInternal {
			t.Fatalf("%s: a tick at MaxPeriod-1 = %d, %v; want %s", name, p, err, apierr.CodeInternal)
		}
		if p, err := c.Period(ctx); err != nil || p != command.MaxPeriod-1 {
			t.Fatalf("%s: after the refused tick the period is %d, %v", name, p, err)
		}
		refusals[name] = *api
	}
	if refusals["http"] != refusals["wire"] {
		t.Errorf("refusals differ: http %+v, wire %+v", refusals["http"], refusals["wire"])
	}
}

func TestDialSchemes(t *testing.T) {
	if _, err := Dial("wire://127.0.0.1:1", WithOperatorToken("x")); err == nil {
		t.Fatal("HTTP options accepted on wire target")
	}
	c, err := Dial("http://example.invalid")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*httpClient); !ok {
		t.Fatalf("http dial returned %T", c)
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("bare addr with no listener dialed successfully")
	}
}
