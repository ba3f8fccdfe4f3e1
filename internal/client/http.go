package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
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
	// The targets of the hot calls (a read mix's period reads, its ticks
	// and bids), built once; the others are built per call.
	period, tick, bids string
	// Header values, assigned under their canonical keys: net/http only
	// reads them.
	contentType, authorization []string
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
	c := &httpClient{base: base, doer: cfg.httpClient, credential: cfg.credential, contentType: []string{"application/json"}}
	c.period, c.tick, c.bids = base+"/v1/period", base+"/v1/tick", base+"/v1/bids"
	if c.doer == nil {
		c.doer = http.DefaultClient
	}
	if cfg.token != "" {
		c.authorization = []string{"Bearer " + cfg.token}
	}
	// nonce stores the next value to use, pre-decremented by Add.
	c.nonce.Store(cfg.nonce - 1)
	return c
}

// bodyPool holds the buffers do reads response bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// bidPool holds the bids SubmitBid marshals, already on the heap, so
// handing one to send's any boxes nothing.
var bidPool = sync.Pool{New: func() any { return new(httpBid) }}

// send is do with v's JSON as the request body.
func (c *httpClient) send(ctx context.Context, method, target string, v, dst any, ms ...member) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.do(ctx, method, target, body, dst, ms...)
}

// do performs one round-trip to target, with body, when not nil, as its
// JSON request body. It reads the whole response body, which lets
// net/http reuse the connection, and decodes it into ms with
// decodeObject, or else into dst with json.Unmarshal. A non-2xx response
// decodes the {"error":{code,message}} envelope into an
// *apierr.APIError; an envelope-less failure becomes a plain error
// carrying the status.
func (c *httpClient) do(ctx context.Context, method, target string, body []byte, dst any, ms ...member) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header["Content-Type"] = c.contentType
	}
	if c.authorization != nil {
		req.Header["Authorization"] = c.authorization
	}
	// A context carrying an obs request ID propagates the trace the same
	// way the wire transport's trace field does: the server executes
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
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil: // the read failed: that is the call's error
	case resp.StatusCode >= 400:
		var e struct{ Error *apierr.APIError }
		if json.Unmarshal(buf.Bytes(), &e) == nil && e.Error != nil && e.Error.Message != "" {
			err = e.Error
		} else {
			err = fmt.Errorf("client: HTTP %d from %s %s", resp.StatusCode, method, target)
		}
	case len(ms) > 0:
		err = decodeObject(buf.Bytes(), ms...)
	case dst != nil:
		err = json.Unmarshal(buf.Bytes(), dst)
	}
	if buf.Cap() <= 64<<10 { // not one a Transactions reply grew
		bodyPool.Put(buf)
	}
	return err
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
	if err := c.send(ctx, "POST", c.base+"/v1/buyers", map[string]string{"id": string(id)}, &resp); err != nil {
		return "", err
	}
	return resp["credential"], nil
}

func (c *httpClient) RegisterSeller(ctx context.Context, id market.SellerID) error {
	return c.send(ctx, "POST", c.base+"/v1/sellers", map[string]string{"id": string(id)}, nil)
}

func (c *httpClient) UploadDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.send(ctx, "POST", c.base+"/v1/datasets",
		map[string]string{"seller": string(seller), "id": string(id)}, nil)
}

func (c *httpClient) ComposeDataset(ctx context.Context, id market.DatasetID, constituents ...market.DatasetID) error {
	parts := make([]string, len(constituents))
	for i, p := range constituents {
		parts[i] = string(p)
	}
	return c.send(ctx, "POST", c.base+"/v1/datasets/compose",
		map[string]any{"id": string(id), "constituents": parts}, nil)
}

func (c *httpClient) WithdrawDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error {
	return c.do(ctx, "DELETE",
		c.base+"/v1/datasets/"+url.PathEscape(string(id))+"?seller="+url.QueryEscape(string(seller)), nil, nil)
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
	body := bidPool.Get().(*httpBid)
	defer bidPool.Put(body)
	var err error
	if *body, err = c.bidBody(buyer, dataset, amount); err != nil {
		return market.Decision{}, err
	}
	var resp httpDecision
	if err := c.send(ctx, "POST", c.bids, body, nil,
		member{"allocated", &resp.Allocated}, member{"price_paid", &resp.PricePaid}, member{"wait_periods", &resp.WaitPeriods}); err != nil {
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
	if err := c.send(ctx, "POST", c.base+"/v1/bids/batch", map[string]any{"bids": bids}, &resp); err != nil {
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
	return one[int](ctx, c, "POST", c.tick, []byte("{}"), "period")
}

func (c *httpClient) Period(ctx context.Context) (int, error) {
	return one[int](ctx, c, "GET", c.period, nil, "period")
}

// one is a call whose answer is an object of one member, key.
func one[T int | float64](ctx context.Context, c *httpClient, method, target string, body []byte, key string) (T, error) {
	var v T
	if err := c.do(ctx, method, target, body, nil, member{key, &v}); err != nil {
		return 0, err
	}
	return v, nil
}

func (c *httpClient) Datasets(ctx context.Context) ([]market.DatasetID, error) {
	var ids []string
	if err := c.do(ctx, "GET", c.base+"/v1/datasets", nil, &ids); err != nil {
		return nil, err
	}
	out := make([]market.DatasetID, len(ids))
	for i, id := range ids {
		out[i] = market.DatasetID(id)
	}
	return out, nil
}

func (c *httpClient) Stats(ctx context.Context, dataset market.DatasetID) (market.DatasetStats, error) {
	var st market.DatasetStats // untagged: its field names are the keys
	if err := c.do(ctx, "GET", c.base+"/v1/datasets/"+url.PathEscape(string(dataset))+"/stats", nil, nil,
		member{"Dataset", (*string)(&st.Dataset)}, member{"Bids", &st.Bids}, member{"Allocations", &st.Allocations},
		member{"Epochs", &st.Epochs}, member{"Revenue", &st.Revenue}, member{"PostingPrice", &st.PostingPrice},
		member{"MostLikelyPrice", &st.MostLikelyPrice}); err != nil {
		return market.DatasetStats{}, err
	}
	return st, nil
}

func (c *httpClient) SellerBalance(ctx context.Context, id market.SellerID) (market.Money, error) {
	bal, err := one[float64](ctx, c, "GET", c.base+"/v1/sellers/"+url.PathEscape(string(id))+"/balance", nil, "balance")
	return market.FromFloat(bal), err
}

func (c *httpClient) WaitRemaining(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID) (int, error) {
	return one[int](ctx, c, "GET", c.base+"/v1/buyers/"+url.PathEscape(string(buyer))+"/wait?dataset="+url.QueryEscape(string(dataset)), nil, "wait_periods")
}

func (c *httpClient) Transactions(ctx context.Context) ([]market.Transaction, error) {
	var txs []market.Transaction
	if err := c.do(ctx, "GET", c.base+"/v1/transactions", nil, &txs); err != nil {
		return nil, err
	}
	return txs, nil
}

func (c *httpClient) Ping(ctx context.Context) error {
	return c.do(ctx, "GET", c.base+"/healthz", nil, nil)
}

// Close is a no-op: the HTTP transport holds no persistent connection
// of its own.
func (c *httpClient) Close() error { return nil }
