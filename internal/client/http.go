package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// httpDoer is the slice of *http.Client the transport uses.
type httpDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

// httpClient is the HTTP/JSON transport: one typed method per v1
// endpoint, the versioned error envelope decoded back into
// *apierr.APIError.
type httpClient struct {
	base       string
	doer       httpDoer
	credential string
	nonce      atomic.Uint64
	token      string
}

// NewHTTP returns a Client over the HTTP/JSON API at base (e.g.
// "http://localhost:8080").
func NewHTTP(base string, opts ...Option) Client {
	var cfg options
	for _, o := range opts {
		o(&cfg)
	}
	return newHTTP(base, cfg)
}

func newHTTP(base string, cfg options) *httpClient {
	c := &httpClient{
		base:       base,
		doer:       cfg.httpClient,
		credential: cfg.credential,
		token:      cfg.token,
	}
	if c.doer == nil {
		c.doer = http.DefaultClient
	}
	// nonce stores the next value to use, pre-decremented by Add.
	c.nonce.Store(cfg.nonce - 1)
	return c
}

// do performs one JSON round-trip. A non-2xx response decodes the
// {"error":{code,message}} envelope into an *apierr.APIError; an
// envelope-less failure becomes a plain error carrying the status.
func (c *httpClient) do(ctx context.Context, method, path string, body, dst any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	// A context carrying an obs request ID propagates the trace the same
	// way the wire transport's v2 trace field does: the server executes
	// (and journals) under the caller's ID, continuing a sampled trace.
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Trace-ID", id)
		if obs.TraceFrom(ctx) != nil {
			req.Header.Set("X-Trace-Sampled", "1")
		}
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// net/http pools a keep-alive connection only once its body has been
	// read to the end, whatever was decoded from it.
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 400 {
		var e struct {
			Error *apierr.APIError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != nil && e.Error.Message != "" {
			return e.Error
		}
		return fmt.Errorf("client: HTTP %d from %s %s", resp.StatusCode, method, path)
	}
	if dst == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// httpBid is one bid's request body; a signed one carries amount_micros,
// nonce and mac, and amount 0.
type httpBid struct {
	market.BidRequest
	AmountMicros int64  `json:"amount_micros,omitempty"`
	Nonce        uint64 `json:"nonce,omitempty"`
	MAC          string `json:"mac,omitempty"`
}

// bidBody builds one bid's request body, signing it when the client
// holds a credential.
func (c *httpClient) bidBody(buyer market.BuyerID, dataset market.DatasetID, amount float64) (httpBid, error) {
	if c.credential == "" {
		return httpBid{BidRequest: market.BidRequest{Buyer: buyer, Dataset: dataset, Amount: amount}}, nil
	}
	signed, err := auth.Sign(auth.Credential{BuyerID: string(buyer), Secret: c.credential},
		string(dataset), int64(market.FromFloat(amount)), c.nonce.Add(1))
	return httpBid{market.BidRequest{Buyer: buyer, Dataset: dataset}, signed.AmountMicros, signed.Nonce, signed.MAC}, err
}

func (c *httpClient) RegisterBuyer(ctx context.Context, id market.BuyerID) (string, error) {
	var resp map[string]string
	if err := c.do(ctx, "POST", "/v1/buyers", map[string]string{"id": string(id)}, &resp); err != nil {
		return "", err
	}
	return resp["credential"], nil
}

func (c *httpClient) RegisterSeller(ctx context.Context, id market.SellerID) error {
	return c.do(ctx, "POST", "/v1/sellers", map[string]string{"id": string(id)}, nil)
}

func (c *httpClient) UploadDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.do(ctx, "POST", "/v1/datasets",
		map[string]string{"seller": string(seller), "id": string(id)}, nil)
}

func (c *httpClient) ComposeDataset(ctx context.Context, id market.DatasetID, constituents ...market.DatasetID) error {
	parts := make([]string, len(constituents))
	for i, p := range constituents {
		parts[i] = string(p)
	}
	return c.do(ctx, "POST", "/v1/datasets/compose",
		map[string]any{"id": string(id), "constituents": parts}, nil)
}

func (c *httpClient) WithdrawDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.do(ctx, "DELETE",
		"/v1/datasets/"+url.PathEscape(string(id))+"?seller="+url.QueryEscape(string(seller)), nil, nil)
}

// httpDecision is the JSON decision shape shared by /v1/bids and batch
// entries.
type httpDecision struct {
	Allocated   bool             `json:"allocated"`
	PricePaid   float64          `json:"price_paid"`
	WaitPeriods int              `json:"wait_periods"`
	Error       *apierr.APIError `json:"error"`
}

func (d httpDecision) decision() market.Decision {
	return market.Decision{
		Allocated:   d.Allocated,
		PricePaid:   market.FromFloat(d.PricePaid),
		WaitPeriods: d.WaitPeriods,
	}
}

func (c *httpClient) SubmitBid(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error) {
	body, err := c.bidBody(buyer, dataset, amount)
	if err != nil {
		return market.Decision{}, err
	}
	var resp httpDecision
	if err := c.do(ctx, "POST", "/v1/bids", body, &resp); err != nil {
		return market.Decision{}, err
	}
	return resp.decision(), nil
}

func (c *httpClient) SubmitBids(ctx context.Context, reqs []market.BidRequest) ([]market.BidResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	bids := make([]httpBid, len(reqs))
	for i, r := range reqs {
		body, err := c.bidBody(r.Buyer, r.Dataset, r.Amount)
		if err != nil {
			return nil, err
		}
		bids[i] = body
	}
	var resp struct {
		Results []httpDecision `json:"results"`
	}
	if err := c.do(ctx, "POST", "/v1/bids/batch", map[string]any{"bids": bids}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("client: batch returned %d results for %d bids", len(resp.Results), len(reqs))
	}
	out := make([]market.BidResult, len(reqs))
	for i, r := range resp.Results {
		if r.Error != nil {
			out[i].Err = r.Error
			continue
		}
		out[i].Decision = r.decision()
	}
	return out, nil
}

func (c *httpClient) Tick(ctx context.Context) (int, error) {
	var resp struct{ Period int }
	if err := c.do(ctx, "POST", "/v1/tick", map[string]any{}, &resp); err != nil {
		return 0, err
	}
	return resp.Period, nil
}

func (c *httpClient) Period(ctx context.Context) (int, error) {
	var resp struct{ Period int }
	if err := c.do(ctx, "GET", "/v1/period", nil, &resp); err != nil {
		return 0, err
	}
	return resp.Period, nil
}

func (c *httpClient) Datasets(ctx context.Context) ([]market.DatasetID, error) {
	var ids []string
	if err := c.do(ctx, "GET", "/v1/datasets", nil, &ids); err != nil {
		return nil, err
	}
	out := make([]market.DatasetID, len(ids))
	for i, id := range ids {
		out[i] = market.DatasetID(id)
	}
	return out, nil
}

func (c *httpClient) Stats(ctx context.Context, dataset market.DatasetID) (market.DatasetStats, error) {
	var st market.DatasetStats
	if err := c.do(ctx, "GET", "/v1/datasets/"+url.PathEscape(string(dataset))+"/stats", nil, &st); err != nil {
		return market.DatasetStats{}, err
	}
	return st, nil
}

func (c *httpClient) SellerBalance(ctx context.Context, id market.SellerID) (market.Money, error) {
	var resp struct{ Balance float64 }
	if err := c.do(ctx, "GET", "/v1/sellers/"+url.PathEscape(string(id))+"/balance", nil, &resp); err != nil {
		return 0, err
	}
	return market.FromFloat(resp.Balance), nil
}

func (c *httpClient) WaitRemaining(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID) (int, error) {
	var resp struct {
		WaitPeriods int `json:"wait_periods"`
	}
	path := "/v1/buyers/" + url.PathEscape(string(buyer)) + "/wait?dataset=" + url.QueryEscape(string(dataset))
	if err := c.do(ctx, "GET", path, nil, &resp); err != nil {
		return 0, err
	}
	return resp.WaitPeriods, nil
}

func (c *httpClient) Transactions(ctx context.Context) ([]market.Transaction, error) {
	var txs []market.Transaction
	if err := c.do(ctx, "GET", "/v1/transactions", nil, &txs); err != nil {
		return nil, err
	}
	return txs, nil
}

func (c *httpClient) Ping(ctx context.Context) error {
	return c.do(ctx, "GET", "/healthz", nil, nil)
}

// Close is a no-op: the HTTP transport holds no persistent connection
// of its own.
func (c *httpClient) Close() error { return nil }
