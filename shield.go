// Package shield is a Go implementation of the data-market protection
// techniques from "Protecting Data Markets from Strategic Buyers"
// (Raul Castro Fernandez, SIGMOD 2022): Epoch-Shield, Time-Shield and
// Uncertainty-Shield, combined into a multiplicative-weights posting-price
// algorithm for trading nonrival data, plus the full market substrate the
// paper's evaluation needs.
//
// The package is a facade: it re-exports the library's stable API so
// downstream users never import internal packages directly.
//
//   - Pricing engine (the paper's Algorithm 1): NewEngine / EngineConfig.
//     One engine prices one dataset online, protecting against strategic
//     low bids (epochs), strategizing over time (wait-periods) and
//     boundedly-rational reactions to price leaks (randomized prices).
//   - Market arbiter: NewMarket / MarketConfig. Sellers upload datasets,
//     the arbiter composes derived products and propagates demand through
//     the provenance graph, buyers bid once per period, winners pay the
//     posting price, sale revenue is split exactly among contributing
//     sellers.
//   - Ex-post trading (Section 8): NewExPostArbiter / ExPostConfig, for
//     experience goods where buyers learn the valuation only after use.
//   - Differential-privacy alternative (Section 6.3): NewLaplacePricer.
//   - Buyer behavior models, simulation harness, user-study replication
//     and every table/figure of the paper's evaluation: see Experiments*.
//
// Quickstart:
//
//	engine, err := shield.NewEngine(shield.EngineConfig{
//		Candidates: shield.LinearGrid(1, 200, 40),
//		EpochSize:  8,
//		MinBid:     1,
//	})
//	if err != nil { ... }
//	decision := engine.SubmitBid(120)
//	if decision.Allocated {
//		// the buyer pays decision.Price
//	} else {
//		// Time-Shield: the buyer waits decision.Wait periods
//	}
package shield

import (
	"io"
	"net/http"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/buyers"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/dp"
	"github.com/datamarket/shield/internal/experiments"
	"github.com/datamarket/shield/internal/expost"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/timeseries"
	"github.com/datamarket/shield/internal/userstudy"
)

// ---- Pricing engine (Algorithm 1) ----

// Engine is the protected posting-price engine; one Engine prices one
// dataset.
type Engine = core.Engine

// EngineConfig configures an Engine.
type EngineConfig = core.Config

// Decision is an Engine's answer to one bid.
type Decision = core.Decision

// DrawRule selects how the engine turns learner weights into prices.
type DrawRule = core.DrawRule

// Draw rules: DrawMW is the paper's choice (Uncertainty-Shield with the
// multiplicative-weights guarantee).
const (
	DrawMW     = core.DrawMW
	DrawMWMax  = core.DrawMWMax
	DrawAdHoc  = core.DrawAdHoc
	DrawRandom = core.DrawRandom
)

// WaitStrategy selects the Time-Shield wait-period replay strategy.
type WaitStrategy = core.WaitStrategy

// Wait strategies of Section 6.2.2.
const (
	WaitBound  = core.WaitBound
	WaitStable = core.WaitStable
)

// NewEngine builds a pricing engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.New(cfg) }

// LinearGrid returns n evenly spaced posting-price candidates in [lo, hi].
func LinearGrid(lo, hi float64, n int) []float64 { return auction.LinearGrid(lo, hi, n) }

// GeometricGrid returns n geometrically spaced candidates in [lo, hi].
func GeometricGrid(lo, hi float64, n int) []float64 { return auction.GeometricGrid(lo, hi, n) }

// OptimalPrice returns the revenue-optimal single posting price for a bid
// vector and its revenue (Equation 2).
func OptimalPrice(bids []float64) (price, revenue float64) { return auction.OptimalPrice(bids) }

// PostedRevenue returns the revenue a posting price extracts from bids.
func PostedRevenue(bids []float64, price float64) float64 { return auction.Revenue(bids, price) }

// ---- Market arbiter ----

// Market is the arbiter plus its books: datasets, engines, buyers,
// sellers, transactions, and the provenance-based revenue split.
type Market = market.Market

// MarketConfig configures a Market.
type MarketConfig = market.Config

// MarketDecision is the market's answer to a bid (losers see only their
// wait, never the posting price).
type MarketDecision = market.Decision

// Identifier types for market participants and assets.
type (
	BuyerID   = market.BuyerID
	SellerID  = market.SellerID
	DatasetID = market.DatasetID
)

// Transaction records one completed sale.
type Transaction = market.Transaction

// Money is integer micro-currency used by all ledgers.
type Money = market.Money

// Micro is the number of Money units per currency unit.
const Micro = market.Micro

// MoneyFromFloat converts currency units to Money, rounding half away
// from zero.
func MoneyFromFloat(f float64) Money { return market.FromFloat(f) }

// NewMarket builds a market arbiter.
func NewMarket(cfg MarketConfig) (*Market, error) { return market.New(cfg) }

// BidRequest is one bid of a batch submitted through Market.SubmitBids.
type BidRequest = market.BidRequest

// BidResult is the outcome of one bid of a batch: a MarketDecision or
// the error the equivalent single-bid call would have returned.
type BidResult = market.BidResult

// DefaultMarketShards is the value MarketConfig.Shards carried by
// default while the market was sharded by dataset. The field is still
// recorded in journals and snapshots but selects nothing: one applier
// runs every command.
const DefaultMarketShards = market.DefaultShards

// Utility is the deadline-patience buyer utility of Equation 1.
func Utility(valuation, price float64, allocated bool, t, deadline int) float64 {
	return market.Utility(valuation, price, allocated, t, deadline)
}

// PatienceFunc maps allocation time and deadline to a utility multiplier
// (the paper's delta, generalized).
type PatienceFunc = market.PatienceFunc

// Patience functions: the paper's deadline step plus the progressive
// decay variants Section 2.2 alludes to.
var (
	DeadlinePatience    PatienceFunc = market.DeadlinePatience
	LinearDecayPatience PatienceFunc = market.LinearDecayPatience
)

// ExpDecayPatience halves utility every halfLife periods until the
// deadline.
func ExpDecayPatience(halfLife int) PatienceFunc { return market.ExpDecayPatience(halfLife) }

// UtilityWith generalizes Equation 1 to an arbitrary patience function.
func UtilityWith(p PatienceFunc, valuation, price float64, allocated bool, t, deadline int) float64 {
	return market.UtilityWith(p, valuation, price, allocated, t, deadline)
}

// Market errors, for errors.Is checks.
var (
	ErrUnknownBuyer    = market.ErrUnknownBuyer
	ErrUnknownSeller   = market.ErrUnknownSeller
	ErrUnknownDataset  = market.ErrUnknownDataset
	ErrDuplicateID     = market.ErrDuplicateID
	ErrBadBid          = market.ErrBadBid
	ErrBidTooSoon      = market.ErrBidTooSoon
	ErrWaitActive      = market.ErrWaitActive
	ErrAlreadyAcquired = market.ErrAlreadyAcquired
	ErrDatasetInUse    = market.ErrDatasetInUse
)

// Stable machine-readable error codes carried by the HTTP API's
// versioned envelope {"error":{"code":"...","message":"..."}}. Clients
// should branch on these, never on message text.
const (
	ErrCodeDuplicateID     = apierr.CodeDuplicateID
	ErrCodeUnknownBuyer    = apierr.CodeUnknownBuyer
	ErrCodeUnknownSeller   = apierr.CodeUnknownSeller
	ErrCodeUnknownDataset  = apierr.CodeUnknownDataset
	ErrCodeBadBid          = apierr.CodeBadBid
	ErrCodeBidTooSoon      = apierr.CodeBidTooSoon
	ErrCodeBlockedUntil    = apierr.CodeBlockedUntil
	ErrCodeAlreadyAcquired = apierr.CodeAlreadyAcquired
	ErrCodeDatasetInUse    = apierr.CodeDatasetInUse
	ErrCodeEmptyID         = apierr.CodeEmptyID
	ErrCodeUnauthorized    = apierr.CodeUnauthorized
	ErrCodeBadRequest      = apierr.CodeBadRequest
	ErrCodeInternal        = apierr.CodeInternal

	ErrCodeReadOnlyReplica    = apierr.CodeReadOnlyReplica
	ErrCodeReplicaUnavailable = apierr.CodeReplicaUnavailable
)

// APIError is the code/message body of the HTTP error envelope.
type APIError = apierr.APIError

// ---- Ex-post trading (Section 8) ----

// ExPostArbiter trades data as an experience good: allocate first, pay
// after use, with Time-Shield penalties for under-payment.
type ExPostArbiter = expost.Arbiter

// ExPostConfig configures an ExPostArbiter.
type ExPostConfig = expost.Config

// GrantID identifies an outstanding ex-post grant.
type GrantID = expost.GrantID

// NewExPostArbiter builds an ex-post arbiter.
func NewExPostArbiter(cfg ExPostConfig) (*ExPostArbiter, error) { return expost.New(cfg) }

// ---- Differential-privacy alternative (Section 6.3) ----

// LaplacePricer releases epsilon-differentially-private posting prices.
type LaplacePricer = dp.LaplacePricer

// LaplaceConfig configures a LaplacePricer.
type LaplaceConfig = dp.Config

// NewLaplacePricer builds the DP pricing mechanism.
func NewLaplacePricer(cfg LaplaceConfig) (*LaplacePricer, error) { return dp.New(cfg) }

// ---- Buyer behavior ----

// BuyerStrategy decides one buyer's bidding for one dataset.
type BuyerStrategy = buyers.Strategy

// Buyer strategy implementations.
type (
	TruthfulBuyer     = buyers.Truthful
	StrategicBuyer    = buyers.Strategic
	LeakReactiveBuyer = buyers.LeakReactive
	NoisyBuyer        = buyers.Noisy
	SniperBuyer       = buyers.Sniper
)

// NewTruthfulBuyer bids the valuation until it wins.
func NewTruthfulBuyer(valuation float64) *TruthfulBuyer { return buyers.NewTruthful(valuation) }

// NewStrategicBuyer low-balls at beta*valuation until its last chance.
func NewStrategicBuyer(valuation, beta, floor float64, cautious bool) *StrategicBuyer {
	return buyers.NewStrategic(valuation, beta, floor, cautious)
}

// NewLeakReactiveBuyer anchors its bid to leaked prices (the
// boundedly-rational behavior of Section 5).
func NewLeakReactiveBuyer(valuation, sensitivity, margin float64) *LeakReactiveBuyer {
	return buyers.NewLeakReactive(valuation, sensitivity, margin)
}

// NewSniperBuyer lurks until lead periods before its deadline, then bids
// truthfully.
func NewSniperBuyer(valuation float64, lead int) *SniperBuyer {
	return buyers.NewSniper(valuation, lead)
}

// Participant pairs a registered buyer with a strategy and deadline.
type Participant = buyers.Participant

// SessionResult summarizes a bidding session.
type SessionResult = buyers.SessionResult

// RunSession drives participants against one dataset for a number of
// periods.
func RunSession(m *Market, dataset DatasetID, parts []Participant, periods int) (SessionResult, error) {
	return buyers.RunSession(m, dataset, parts, periods)
}

// ---- Bid signing (false-name-bidding deterrence, Section 2.1) ----

// BidVerifier enrolls buyers and verifies HMAC-signed bids.
type BidVerifier = auth.Verifier

// BidCredential is the per-buyer signing secret issued at enrollment.
type BidCredential = auth.Credential

// SignedBid is a bid bound to a buyer identity.
type SignedBid = auth.SignedBid

// NewBidVerifier returns a verifier. keySource supplies enrollment
// secrets (use crypto/rand in production); nil selects a deterministic
// source suitable only for tests and simulations.
func NewBidVerifier(keySource func() ([]byte, error)) *BidVerifier {
	return auth.NewVerifier(keySource)
}

// SignBid computes the MAC binding a bid to a buyer credential.
func SignBid(cred BidCredential, dataset string, amountMicros int64, nonce uint64) (SignedBid, error) {
	return auth.Sign(cred, dataset, amountMicros, nonce)
}

// ---- Persistence (event journal) ----

// JournaledMarket wraps a Market, appending every successful mutating
// operation to an event log from which the exact state can be rebuilt.
type JournaledMarket = journal.Market

// NewJournaledMarket builds a market whose operations are journaled to
// sink (the genesis record carries the configuration).
func NewJournaledMarket(cfg MarketConfig, sink io.Writer) (*JournaledMarket, error) {
	return journal.NewMarket(cfg, sink)
}

// OpenJournaledMarket creates or resumes a persistent journaled market
// in the store directory dir (segment files plus snapshot checkpoints,
// default tuning), returning the number of events replayed past the
// newest checkpoint.
func OpenJournaledMarket(cfg MarketConfig, dir string) (*JournaledMarket, int, error) {
	return journal.OpenStore(cfg, dir, journal.StoreConfig{})
}

// RestoreMarket rebuilds a market from a journal.
func RestoreMarket(r io.Reader) (*Market, error) { return journal.Restore(r) }

// MigrateJournal rewrites what an older release left at path — a store,
// or a single-file journal, which becomes the store path+".d" — in the
// format OpenJournaledMarket reads, and returns the store's directory.
func MigrateJournal(path string) (dir string, err error) {
	dir, _, err = journal.Migrate(path)
	return dir, err
}

// MarketSnapshot is the market's full serializable state; restoring it
// yields a market that behaves identically from that point on.
type MarketSnapshot = market.Snapshot

// RestoreMarketSnapshot reconstructs a market from a snapshot.
func RestoreMarketSnapshot(s MarketSnapshot) (*Market, error) {
	return market.RestoreSnapshot(s)
}

// ---- HTTP API ----

// NewMarketHandler serves the market over the JSON HTTP API of
// cmd/marketd. verifier may be nil to accept unsigned bids.
func NewMarketHandler(m *Market, verifier *BidVerifier) http.Handler {
	return httpapi.NewServer(m).WithAuth(verifier).Routes()
}

// NewJournaledMarketHandler is NewMarketHandler over a journaled market.
func NewJournaledMarketHandler(m *JournaledMarket, verifier *BidVerifier) http.Handler {
	return httpapi.NewJournaled(m).WithAuth(verifier).Routes()
}

// ---- Unified client ----

// Client is the typed client for a marketd server: one interface, two
// interchangeable transports (HTTP/JSON and the binary wire protocol).
// Server-reported failures surface as *APIError carrying a stable
// ErrCode* value; semantics are identical on either transport.
type Client = client.Client

// ClientOption configures the client's HTTP transport at dial time.
type ClientOption = client.Option

// DatasetStats is the diagnostic snapshot Client.Stats returns.
type DatasetStats = market.DatasetStats

// Dial connects to a marketd server and selects the transport from the
// target's scheme: "http://" or "https://" for the JSON API, "wire://"
// or a bare "host:port" for the binary wire protocol (marketd
// -wire-addr).
func Dial(target string, opts ...ClientOption) (Client, error) {
	return client.Dial(target, opts...)
}

// NewHTTPClient returns a Client over the HTTP/JSON API at base.
func NewHTTPClient(base string, opts ...ClientOption) Client {
	return client.NewHTTP(base, opts...)
}

// ErrClientConnClosed is the wire transport's dead-connection sentinel:
// once a wire client's stream fails (server hangup, expired deadline,
// desynchronized frames), every in-flight and later call returns an
// error wrapping it. Close the client and redial.
var ErrClientConnClosed = client.ErrConnClosed

// DialWireClient returns a Client speaking the binary wire protocol to
// addr ("host:port").
func DialWireClient(addr string) (Client, error) { return client.DialWire(addr) }

// WithClientCredential makes the HTTP transport sign every bid with the
// hex secret issued by Client.RegisterBuyer, starting at nonce.
func WithClientCredential(secret string, nonce uint64) ClientOption {
	return client.WithCredential(secret, nonce)
}

// WithClientOperatorToken sends token as a bearer token on every HTTP
// request, unlocking the operator endpoints under auth.
func WithClientOperatorToken(token string) ClientOption {
	return client.WithOperatorToken(token)
}

// ---- Workloads, panels and experiments ----

// RNG is the deterministic random number generator used throughout.
type RNG = rng.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// ARConfig parameterizes the AR(1) valuation generator of Section 7.2.1.
type ARConfig = timeseries.ARConfig

// StrategicConfig is the paper's <PCT, beta, H> strategic-buyer triple.
type StrategicConfig = timeseries.StrategicConfig

// Bid is one submitted bid in a simulated stream.
type Bid = timeseries.Bid

// GenerateValuations draws an AR(1) valuation series.
func GenerateValuations(cfg ARConfig, r *RNG) ([]float64, error) {
	return timeseries.GenerateValuations(cfg, r)
}

// TransformStrategic applies the strategic-buyer transform to a valuation
// series.
func TransformStrategic(valuations []float64, cfg StrategicConfig, r *RNG) ([]Bid, error) {
	return timeseries.Transform(valuations, cfg, r)
}

// Panel is the synthetic user-study participant panel of Section 7.1.
type Panel = userstudy.Panel

// NewPanel draws a reproducible persona panel (n <= 0 selects the paper's
// 50 participants).
func NewPanel(n int, seed uint64) *Panel { return userstudy.NewPanel(n, seed) }

// ExperimentOptions scales the paper experiments; the zero value
// reproduces the paper's settings (100 series, 50 participants).
type ExperimentOptions = experiments.Options

// Summary is the five-number box-plot summary used by experiment results.
type Summary = stats.Summary

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }
