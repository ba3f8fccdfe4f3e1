package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// TestBidsJournalTheirRequestID: a bid and a bid batch journal the ID
// they executed under as their record's trace, as every other HTTP write
// does (TestWritesJournalTheirRequestID): their handlers read it from the
// request's state, not from the request.
func TestBidsJournalTheirRequestID(t *testing.T) {
	var sink bytes.Buffer
	jm, err := journal.NewMarket(testConfig(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewJournaled(jm).Routes())
	defer ts.Close()
	c := client.NewHTTP(ts.URL)
	ctx := context.Background()
	_, err = c.RegisterBuyer(ctx, "b")
	for _, e := range []error{err, c.RegisterSeller(ctx, "s"), c.UploadDataset(ctx, "s", "d1"), c.UploadDataset(ctx, "s", "d2")} {
		if e != nil {
			t.Fatal(e)
		}
	}
	if _, err := c.SubmitBid(obs.WithRequestID(ctx, "req-peer-bid"), "b", "d1", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBids(obs.WithRequestID(ctx, "req-peer-batch"), []market.BidRequest{{Buyer: "b", Dataset: "d2", Amount: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	var traces []string
	if _, _, err := journal.Scan(bytes.NewReader(sink.Bytes()), 1, func(e journal.Event) error {
		traces = append(traces, e.Trace)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := traces[len(traces)-2:]; got[0] != "req-peer-bid" || got[1] != "req-peer-batch" {
		t.Errorf("the bid and the batch journal traces %q, want their requests' IDs", got)
	}
}

// postBatch posts a batch request and decodes the results array.
func postBatch(t *testing.T, ts *httptest.Server, bids []map[string]any) (*http.Response, []map[string]any) {
	t.Helper()
	resp, raw := post(t, ts, "/v1/bids/batch", map[string]any{"bids": bids})
	var results []map[string]any
	if arr, ok := raw["results"].([]any); ok {
		for _, e := range arr {
			results = append(results, e.(map[string]any))
		}
	}
	return resp, results
}

func TestBidBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	for _, d := range []string{"d1", "d2", "d3"} {
		post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": d})
	}
	for _, b := range []string{"b1", "b2"} {
		post(t, ts, "/v1/buyers", map[string]string{"id": b})
	}

	resp, results := postBatch(t, ts, []map[string]any{
		{"buyer": "b1", "dataset": "d1", "amount": 150.0},
		{"buyer": "b2", "dataset": "d2", "amount": 150.0},
		{"buyer": "ghost", "dataset": "d3", "amount": 150.0},
		{"buyer": "b1", "dataset": "nope", "amount": 150.0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for i := 0; i < 2; i++ {
		if results[i]["allocated"] != true {
			t.Fatalf("entry %d not allocated: %v", i, results[i])
		}
		if results[i]["error"] != nil {
			t.Fatalf("entry %d carries error: %v", i, results[i])
		}
	}
	for i, wantCode := range map[int]string{2: apierr.CodeUnknownBuyer, 3: apierr.CodeUnknownDataset} {
		env, ok := results[i]["error"].(map[string]any)
		if !ok {
			t.Fatalf("entry %d has no error envelope: %v", i, results[i])
		}
		if env["code"] != wantCode {
			t.Fatalf("entry %d code = %v, want %s", i, env["code"], wantCode)
		}
		if env["message"] == "" {
			t.Fatalf("entry %d has empty message", i)
		}
	}

	// Empty and oversized batches are rejected whole.
	resp, raw := post(t, ts, "/v1/bids/batch", map[string]any{"bids": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", resp.StatusCode)
	}
	if env := raw["error"].(map[string]any); env["code"] != apierr.CodeBadRequest {
		t.Fatalf("empty batch code = %v", env["code"])
	}
	big := make([]map[string]any, command.MaxBatchBids+1)
	for i := range big {
		big[i] = map[string]any{"buyer": "b1", "dataset": "d1", "amount": 1.0}
	}
	resp, _ = postBatch(t, ts, big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", resp.StatusCode)
	}
}

func TestBidBatchAuth(t *testing.T) {
	m := market.MustNew(market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 12,
	})
	verifier := auth.NewVerifier(nil)
	ts := httptest.NewServer(NewServer(m).WithAuth(verifier).Routes())
	t.Cleanup(ts.Close)

	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})
	_, out := post(t, ts, "/v1/buyers", map[string]string{"id": "bob"})
	cred := auth.Credential{BuyerID: "bob", Secret: out["credential"].(string)}

	signed, err := auth.Sign(cred, "d", 150_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, results := postBatch(t, ts, []map[string]any{
		{"buyer": "bob", "dataset": "d",
			"amount_micros": signed.AmountMicros, "nonce": signed.Nonce, "mac": signed.MAC},
		{"buyer": "bob", "dataset": "d", "amount": 99.0}, // unsigned
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("signed batch status = %d", resp.StatusCode)
	}
	if results[0]["allocated"] != true {
		t.Fatalf("signed entry lost: %v", results[0])
	}
	env, ok := results[1]["error"].(map[string]any)
	if !ok || env["code"] != apierr.CodeUnauthorized {
		t.Fatalf("unsigned entry = %v, want unauthorized envelope", results[1])
	}
}

// TestBidBatchJournaled drives batches through a journaled server and
// confirms the market recovered from the store matches the live one.
func TestBidBatchJournaled(t *testing.T) {
	dir := t.TempDir()
	cfg := market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 13,
	}
	jm, _, err := journal.OpenStore(cfg, dir, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewJournaled(jm).Routes())
	t.Cleanup(ts.Close)

	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d1"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d2"})
	for i := 0; i < 4; i++ {
		post(t, ts, "/v1/buyers", map[string]string{"id": fmt.Sprintf("b%d", i)})
	}
	resp, results := postBatch(t, ts, []map[string]any{
		{"buyer": "b0", "dataset": "d1", "amount": 150.0},
		{"buyer": "b1", "dataset": "d2", "amount": 150.0},
		{"buyer": "b2", "dataset": "d1", "amount": 2.0},
		{"buyer": "ghost", "dataset": "d2", "amount": 150.0}, // not journaled
	})
	if resp.StatusCode != http.StatusOK || len(results) != 4 {
		t.Fatalf("batch: %d, %d results", resp.StatusCode, len(results))
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	restored, _, _, err := journal.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != jm.Revenue() {
		t.Fatalf("restored revenue %v != live %v", restored.Revenue(), jm.Revenue())
	}
	lt, rt := jm.Transactions(), restored.Transactions()
	if len(lt) != len(rt) {
		t.Fatalf("transactions: %d vs %d", len(lt), len(rt))
	}
	for i := range lt {
		if lt[i] != rt[i] {
			t.Fatalf("transaction %d: %+v vs %+v", i, lt[i], rt[i])
		}
	}
}

// TestErrorEnvelope pins the versioned error shape across handlers.
func TestErrorEnvelope(t *testing.T) {
	ts := testServer(t)
	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})
	post(t, ts, "/v1/buyers", map[string]string{"id": "b"})

	cases := []struct {
		name     string
		status   int
		code     string
		exercise func() (*http.Response, map[string]any)
	}{
		{"duplicate seller", http.StatusConflict, apierr.CodeDuplicateID, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
		}},
		{"unknown dataset", http.StatusNotFound, apierr.CodeUnknownDataset, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": "nope", "amount": 10.0})
		}},
		{"unknown buyer", http.StatusNotFound, apierr.CodeUnknownBuyer, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/bids", map[string]any{"buyer": "ghost", "dataset": "d", "amount": 10.0})
		}},
		{"bad bid", http.StatusBadRequest, apierr.CodeBadBid, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": "d", "amount": -5.0})
		}},
		{"empty id", http.StatusBadRequest, apierr.CodeEmptyID, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/buyers", map[string]string{"id": ""})
		}},
		{"malformed json", http.StatusBadRequest, apierr.CodeBadRequest, func() (*http.Response, map[string]any) {
			return post(t, ts, "/v1/sellers", map[string]any{"bogus": 1})
		}},
	}
	for _, tc := range cases {
		resp, raw := tc.exercise()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var env struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		buf, _ := json.Marshal(raw["error"])
		if err := json.Unmarshal(buf, &env); err != nil {
			t.Errorf("%s: error field is not an envelope: %v", tc.name, raw)
			continue
		}
		if env.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Code, tc.code)
		}
		if env.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
	}

	// Bid-cadence codes: a second bid in the same period is bid_too_soon,
	// and a losing bid's wait block is blocked_until.
	post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": "d", "amount": 2.0})
	resp, raw := post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": "d", "amount": 2.0})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bid in period: %d", resp.StatusCode)
	}
	if env := raw["error"].(map[string]any); env["code"] != apierr.CodeBidTooSoon {
		t.Fatalf("second bid code = %v, want %s", env["code"], apierr.CodeBidTooSoon)
	}
	post(t, ts, "/v1/tick", map[string]any{})
	resp, raw = post(t, ts, "/v1/bids", map[string]any{"buyer": "b", "dataset": "d", "amount": 2.0})
	if resp.StatusCode == http.StatusTooManyRequests {
		if env := raw["error"].(map[string]any); env["code"] != apierr.CodeBlockedUntil {
			t.Fatalf("wait-blocked bid code = %v, want %s", env["code"], apierr.CodeBlockedUntil)
		}
	}
}
