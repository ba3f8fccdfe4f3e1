// Package client is the unified typed client for a marketd server: one
// Client interface with two interchangeable transports — httpClient,
// over the HTTP/JSON API, and *wire.Conn, the binary wire protocol's
// connection (internal/wire), which is a Client itself. Programs written
// against Client switch transports with a dial string; the semantics,
// the typed results, and the error contract are identical either way.
//
// # Errors
//
// Every server-reported failure surfaces as an *apierr.APIError: Code
// is the machine-readable value from the closed shield.ErrCode* set and
// Error() returns the server-side error's exact message. Both
// transports produce the same codes and the same messages for the same
// operations; clients branch on the code, never the text. Transport
// failures (connection refused, timeouts) pass through unwrapped, with
// one refinement on the wire transport: once its stream fails — the
// server hung up mid-pipeline, a deadline expired, the frames
// desynchronized — every in-flight and subsequent call returns an error
// wrapping ErrConnClosed (and the causing context error, when there was
// one), so pools can detect a dead connection and redial.
//
// # Dialing
//
//	c, err := client.Dial("http://localhost:8080")  // HTTP/JSON
//	c, err := client.Dial("wire://localhost:9090")  // binary wire protocol
//	c, err := client.Dial("localhost:9090")         // bare host:port -> wire
package client

import (
	"context"
	"fmt"
	"strings"

	"github.com/datamarket/shield/internal/market"
)

// Client is the typed surface of a marketd server, transport-agnostic.
// Implementations are safe for concurrent use.
type Client interface {
	// RegisterBuyer adds a buyer account. When the server requires
	// signed bids it returns the buyer's signing credential (shown
	// exactly once); otherwise credential is empty. The wire transport
	// never returns a credential (wire deployments run without bid
	// auth).
	RegisterBuyer(ctx context.Context, id market.BuyerID) (credential string, err error)
	// RegisterSeller adds a seller account.
	RegisterSeller(ctx context.Context, id market.SellerID) error
	// UploadDataset registers a base dataset shared by seller.
	UploadDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error
	// ComposeDataset registers a derived dataset assembled from
	// existing datasets.
	ComposeDataset(ctx context.Context, id market.DatasetID, constituents ...market.DatasetID) error
	// WithdrawDataset removes a base dataset no derived product uses.
	WithdrawDataset(ctx context.Context, seller market.SellerID, id market.DatasetID) error

	// SubmitBid places one bid and returns the market's decision.
	SubmitBid(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error)
	// SubmitBids places a batch in one request and returns per-entry
	// results in request order; one failed bid never aborts the rest.
	SubmitBids(ctx context.Context, reqs []market.BidRequest) ([]market.BidResult, error)
	// Tick advances the market period and returns the new period.
	Tick(ctx context.Context) (int, error)

	// Period returns the current market period.
	Period(ctx context.Context) (int, error)
	// Datasets returns the ids of all priced datasets.
	Datasets(ctx context.Context) ([]market.DatasetID, error)
	// Stats returns one dataset's diagnostic snapshot. Operator-facing:
	// under HTTP auth it requires the operator token.
	Stats(ctx context.Context, dataset market.DatasetID) (market.DatasetStats, error)
	// SellerBalance returns a seller's accumulated revenue.
	SellerBalance(ctx context.Context, id market.SellerID) (market.Money, error)
	// WaitRemaining returns the periods left of a Time-Shield wait for
	// buyer on dataset (zero when the buyer may bid).
	WaitRemaining(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID) (int, error)
	// Transactions returns the completed-sale log in sequence order.
	Transactions(ctx context.Context) ([]market.Transaction, error)

	// Ping verifies the server is reachable and serving.
	Ping(ctx context.Context) error
	// Close releases the transport's resources. The client is unusable
	// afterwards.
	Close() error
}

// Dial connects to target and returns a client on the transport its
// scheme selects: "http://" or "https://" for the JSON API, "wire://"
// or a bare "host:port" for the binary wire protocol. Options apply to
// the HTTP transport; dialing a wire target with HTTP-only options set
// is an error.
func Dial(target string, opts ...Option) (Client, error) {
	var cfg options
	for _, o := range opts {
		o(&cfg)
	}
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		return newHTTP(target, cfg), nil
	}
	if addr, ok := strings.CutPrefix(target, "wire://"); ok {
		target = addr
	}
	if cfg.credential != "" || cfg.token != "" || cfg.httpClient != nil {
		return nil, fmt.Errorf("client: HTTP options are not supported on the wire transport (target %q)", target)
	}
	return DialWire(target)
}

// options collects the HTTP transport's dial options.
type options struct {
	credential string
	nonce      uint64
	token      string
	httpClient httpDoer
}

// Option configures the HTTP transport at Dial time.
type Option func(*options)

// WithCredential makes the HTTP transport sign every bid with the hex
// secret, starting at nonce (nonces must strictly increase per buyer;
// the client increments from there). Servers running without bid auth
// ignore signatures.
func WithCredential(secret string, nonce uint64) Option {
	return func(o *options) { o.credential = secret; o.nonce = nonce }
}

// WithOperatorToken sends token as a bearer token on every request,
// unlocking the operator endpoints (stats, metrics) under auth.
func WithOperatorToken(token string) Option {
	return func(o *options) { o.token = token }
}

// WithHTTPDoer swaps the underlying HTTP client (tests, custom
// transports). The default is http.DefaultClient.
func WithHTTPDoer(d httpDoer) Option {
	return func(o *options) { o.httpClient = d }
}
