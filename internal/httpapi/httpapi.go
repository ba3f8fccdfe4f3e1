// Package httpapi exposes a market.Market over a JSON HTTP API — the
// implementation behind cmd/marketd, importable so embedders and tests
// can serve the market in-process. Writes can be routed through the
// event journal (NewJournaled) and bids can be required to carry HMAC
// signatures (WithAuth).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// mutator is the write surface of market.Market and the journaling
// wrapper journal.Market, the one method the wire server drives too: a
// handler encodes its decoded request once and submits the bytes, which
// are what the journal records. Every write takes the request context,
// so the obs trace and request ID ride into the journal's commit stage
// and onto the record.
type mutator interface {
	ApplyEncodedCtx(ctx context.Context, body []byte, res []market.BidResult) (command.Event, error)
}

// Server exposes a market.Market over a JSON HTTP API.
//
//	POST   /v1/sellers            {"id": "acme"}
//	POST   /v1/buyers             {"id": "bob"}
//	POST   /v1/datasets           {"seller": "acme", "id": "sales"}
//	POST   /v1/datasets/compose   {"id": "combo", "constituents": ["a","b"]}
//	DELETE /v1/datasets/{id}?seller=acme
//	POST   /v1/bids               {"buyer": "bob", "dataset": "sales", "amount": 120.5}
//	POST   /v1/bids/batch         {"bids": [{"buyer": "bob", "dataset": "sales", "amount": 120.5}, ...]}
//	POST   /v1/tick               {}
//	GET    /v1/period
//	GET    /v1/datasets
//	GET    /v1/datasets/{id}/stats
//	GET    /v1/sellers/{id}/balance
//	GET    /v1/buyers/{id}/wait?dataset=sales
//	GET    /v1/transactions
//	GET    /metrics
//	GET    /debug/traces
//	GET    /healthz
//	GET    /readyz
//
// Losing bidders receive only their wait-period: the posting price is
// never disclosed to them (that is the leak Uncertainty-Shield guards
// against). The stats, metrics and traces endpoints are operator-facing
// and sit behind the bearer-token gate (WithOperatorToken) whenever bid
// auth or a token is configured.
//
// Every request runs through the obs.Requests lifecycle (its ID echoed
// as X-Request-ID) and, with WithLogger, logs one structured line.
//
// Every error response carries the versioned envelope
// {"error":{"code":"...","message":"..."}} with a stable machine-readable
// code from internal/apierr.
type Server struct {
	m   *market.Market // reads (leader mode; nil on a replica)
	mut mutator        // writes (possibly journaled; read-only on a replica)
	// replica, when set, makes this a read-replica server: reads resolve
	// through the follower's current view (see read), writes are
	// rejected, and /readyz carries staleness.
	replica ReplicaSource
	// verifier, when set, requires every bid to carry a valid HMAC
	// binding it to an enrolled buyer (false-name bidding deterrence,
	// Section 2.1 of the paper). Buyer registration then returns the
	// credential secret.
	verifier *auth.Verifier
	// ready, when set, gates /readyz (journaled servers report their
	// writer's health here).
	ready func() error
	// store, when set, is the segmented journal store behind this
	// server; /readyz's ready body then carries its segment/checkpoint
	// inventory.
	store *journal.Store

	tel      *obs.Telemetry
	telOnce  sync.Once
	requests *obs.Requests
	logger   *slog.Logger
	opToken  string
	gate     apierr.Gate
}

func NewServer(m *market.Market) *Server {
	return &Server{m: m, mut: m}
}

// NewJournaled routes writes through the journaling wrapper; /readyz
// reports the journal writer's health, plus the store's
// segment/checkpoint inventory when the journal is segmented.
func NewJournaled(jm *journal.Market) *Server {
	return &Server{m: jm.Market, mut: jm, ready: jm.Healthy, store: jm.Store()}
}

// WithAuth enables bid signing. Must be called before Routes.
func (s *Server) WithAuth(v *auth.Verifier) *Server {
	s.verifier = v
	return s
}

// Routes builds the instrumented handler: the route table wrapped in
// the request middleware (request IDs, tracing, latency metrics,
// logging). The first call binds the server's telemetry — the shared
// one from WithTelemetry, or a private default — and registers the
// market's metric families on it.
func (s *Server) Routes() http.Handler {
	s.ensureTelemetry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.operatorOnly(s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.operatorOnly(s.handleTraces))
	mux.HandleFunc("POST /v1/sellers", s.handleRegisterSeller)
	mux.HandleFunc("POST /v1/buyers", s.handleRegisterBuyer)
	mux.HandleFunc("POST /v1/datasets", s.handleUploadDataset)
	mux.HandleFunc("POST /v1/datasets/compose", s.handleComposeDataset)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleWithdrawDataset)
	mux.HandleFunc("POST /v1/bids", s.handleBid)
	mux.HandleFunc("POST /v1/bids/batch", s.handleBidBatch)
	mux.HandleFunc("POST /v1/tick", s.handleTick)
	mux.HandleFunc("GET /v1/period", s.read(readPeriod))
	mux.HandleFunc("GET /v1/datasets", s.read(readDatasets))
	mux.HandleFunc("GET /v1/datasets/{id}/stats", s.read(s.readStats))
	mux.HandleFunc("GET /v1/sellers/{id}/balance", s.read(readBalance))
	mux.HandleFunc("GET /v1/buyers/{id}/wait", s.read(readWait))
	mux.HandleFunc("GET /v1/transactions", s.read(readTransactions))
	return s.instrument(mux)
}

type idRequest struct {
	ID string `json:"id"`
}

func (s *Server) handleRegisterSeller(w http.ResponseWriter, r *http.Request) {
	var req idRequest
	if !decode(w, r, &req) {
		return
	}
	if _, ok := s.write(w, command.RegisterSeller{Seller: market.SellerID(req.ID)}); ok {
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	}
}

func (s *Server) handleRegisterBuyer(w http.ResponseWriter, r *http.Request) {
	var req idRequest
	if !decode(w, r, &req) {
		return
	}
	if _, ok := s.write(w, command.RegisterBuyer{Buyer: market.BuyerID(req.ID)}); !ok {
		return
	}
	resp := map[string]string{"id": req.ID}
	if s.verifier != nil {
		cred, err := s.verifier.Enroll(req.ID)
		if err != nil {
			writeError(w, err)
			return
		}
		// The credential secret is issued exactly once, at enrollment.
		resp["credential"] = cred.Secret
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Seller string `json:"seller"`
		ID     string `json:"id"`
	}
	if !decode(w, r, &req) {
		return
	}
	if _, ok := s.write(w, command.UploadDataset{Seller: market.SellerID(req.Seller), Dataset: market.DatasetID(req.ID)}); ok {
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	}
}

// handleWithdrawDataset removes a base dataset; the owning seller must
// be passed as ?seller= and withdrawal fails while derived products
// still build on the dataset.
func (s *Server) handleWithdrawDataset(w http.ResponseWriter, r *http.Request) {
	seller := queryParam(r, "seller")
	if seller == "" {
		writeError(w, missing("seller"))
	} else if _, ok := s.write(w, command.WithdrawDataset{Seller: market.SellerID(seller), Dataset: market.DatasetID(r.PathValue("id"))}); ok {
		writeJSON(w, http.StatusOK, map[string]string{"withdrawn": r.PathValue("id")})
	}
}

func (s *Server) handleComposeDataset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID           string   `json:"id"`
		Constituents []string `json:"constituents"`
	}
	if !decode(w, r, &req) {
		return
	}
	parts := make([]market.DatasetID, len(req.Constituents))
	for i, c := range req.Constituents {
		parts[i] = market.DatasetID(c)
	}
	if _, ok := s.write(w, command.ComposeDataset{Dataset: market.DatasetID(req.ID), Constituents: parts}); ok {
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	}
}

// bidResponse is a decided bid's body.
type bidResponse struct {
	Allocated   bool    `json:"allocated"`
	PricePaid   float64 `json:"price_paid,omitempty"`
	WaitPeriods int     `json:"wait_periods,omitempty"`
}

func responseOf(d market.Decision) bidResponse {
	return bidResponse{d.Allocated, d.PricePaid.Float(), d.WaitPeriods}
}

func (s *Server) handleBid(w http.ResponseWriter, r *http.Request) {
	st, ctx := stateOf(w)
	if !decode(w, r, &st.bid) {
		return
	}
	amount, err := s.authorize(st.bid)
	if err != nil {
		writeAPIError(w, http.StatusUnauthorized, apierr.CodeUnauthorized, err.Error())
		return
	}
	body, _ := command.AppendBinary(st.body[:0], command.SubmitBid{Buyer: market.BuyerID(st.bid.Buyer), Dataset: market.DatasetID(st.bid.Dataset), Amount: amount})
	ev, err := s.mut.ApplyEncodedCtx(ctx, body, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	st.answer.decision = responseOf(ev.Decision)
	writeJSON(w, http.StatusOK, &st.answer.decision)
}

// batchBidEntry is one bid, of POST /v1/bids or of a POST /v1/bids/batch
// request. The signature fields are required when the server runs with
// auth, and AmountMicros is then the bid: MACs cover a canonical integer
// encoding.
type batchBidEntry struct {
	Buyer        string  `json:"buyer"`
	Dataset      string  `json:"dataset"`
	Amount       float64 `json:"amount"`
	AmountMicros int64   `json:"amount_micros,omitempty"`
	Nonce        uint64  `json:"nonce,omitempty"`
	MAC          string  `json:"mac,omitempty"`
}

var errUnsigned = errors.New("auth: bid must be signed (amount_micros, nonce, mac)")

// authorize returns b's amount, or, when the server runs with auth and
// b's signature is missing or wrong, the error a 401 carries.
func (s *Server) authorize(b batchBidEntry) (float64, error) {
	if s.verifier == nil {
		return b.Amount, nil
	}
	if b.MAC == "" {
		return 0, errUnsigned
	}
	err := s.verifier.Verify(auth.SignedBid{
		BuyerID:      b.Buyer,
		Dataset:      b.Dataset,
		AmountMicros: b.AmountMicros,
		Nonce:        b.Nonce,
		MAC:          b.MAC,
	})
	if err != nil {
		return 0, err
	}
	return market.Money(b.AmountMicros).Float(), nil
}

// batchBidResult is bidResponse with a per-entry error envelope: one
// rejected bid never fails the batch, it fails its slot.
type batchBidResult struct {
	bidResponse
	Error *apierr.APIError `json:"error,omitempty"`
}

// handleBidBatch submits a batch of bids in one request. The response
// carries one result per request entry, in order; the call returns 200
// even when individual bids fail (their slots carry error envelopes).
func (s *Server) handleBidBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Bids []batchBidEntry `json:"bids"`
	}
	if !decode(w, r, &req) {
		return
	}
	if len(req.Bids) == 0 {
		writeAPIError(w, http.StatusBadRequest, apierr.CodeBadRequest, "batch must contain at least one bid")
		return
	}
	if err := apierr.CapBatch(len(req.Bids)); err != nil {
		writeError(w, err)
		return
	}

	results := make([]batchBidResult, len(req.Bids))
	// Verify signatures first (when auth is on), so only authenticated
	// bids reach the market; rejected entries fail in place.
	bids := make([]command.SubmitBid, 0, len(req.Bids))
	slots := make([]int, 0, len(req.Bids))
	for i, b := range req.Bids {
		amount, err := s.authorize(b)
		if err != nil {
			results[i].Error = &apierr.APIError{Code: apierr.CodeUnauthorized, Message: err.Error()}
			continue
		}
		bids = append(bids, command.SubmitBid{
			Buyer:   market.BuyerID(b.Buyer),
			Dataset: market.DatasetID(b.Dataset),
			Amount:  amount,
		})
		slots = append(slots, i)
	}
	out := make([]market.BidResult, len(bids))
	if body, err := command.EncodeBinary(command.BidBatch{Bids: bids}); err == nil { // no bids, no batch
		_, ctx := stateOf(w)
		_, _ = s.mut.ApplyEncodedCtx(ctx, body, out)
	}
	for j, res := range out {
		i := slots[j]
		if res.Err != nil {
			code, _ := apierr.Classify(res.Err)
			results[i].Error = &apierr.APIError{Code: code, Message: res.Err.Error()}
			continue
		}
		results[i].bidResponse = responseOf(res.Decision)
	}
	writeJSON(w, http.StatusOK, map[string][]batchBidResult{"results": results})
}

func (s *Server) handleTick(w http.ResponseWriter, _ *http.Request) {
	if ev, ok := s.write(w, command.Tick{}); ok {
		st, _ := stateOf(w)
		st.answer.period.Period = ev.Period
		writeJSON(w, http.StatusOK, &st.answer.period)
	}
}

// write encodes cmd — a handler's command always encodes — submits the
// bytes and returns the event and whether it applied; a refusal it has
// answered with the error's envelope.
func (s *Server) write(w http.ResponseWriter, cmd command.Command) (command.Event, bool) {
	body, _ := command.EncodeBinary(cmd)
	_, ctx := stateOf(w)
	ev, err := s.mut.ApplyEncodedCtx(ctx, body, nil)
	if err != nil {
		writeError(w, err)
	}
	return ev, err == nil
}

// read serves a GET from the request's read view: the JSON of what f
// reads from it (a pointer to its answer in a, or a view's slice), or
// the envelope of the view's or f's error. The view is
// the leader's fixed market, or a replica's current one, which does not
// exist until the first catch-up completes and is swapped wholesale when
// a reconnect falls back to snapshot mode: resolve it once per request.
func (s *Server) read(f func(*market.Market, *http.Request, *answers) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.m
		if s.replica != nil {
			m = s.replica.Market()
		}
		v, err := any(nil), error(apierr.ErrReplicaUnavailable)
		if m != nil {
			st, _ := stateOf(w)
			v, err = f(m, r, &st.answer)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// answers are the bodies a handler encodes from its requestState.
type answers struct {
	period struct {
		Period int `json:"period"`
	}
	balance struct {
		Balance float64 `json:"balance"`
	}
	wait struct {
		WaitPeriods int `json:"wait_periods"`
	}
	decision bidResponse
	stats    market.DatasetStats
}

func readPeriod(m *market.Market, _ *http.Request, a *answers) (any, error) {
	a.period.Period = m.Period()
	return &a.period, nil
}

func readDatasets(m *market.Market, _ *http.Request, _ *answers) (any, error) {
	return m.Datasets(), nil
}

func (s *Server) readStats(m *market.Market, r *http.Request, a *answers) (_ any, err error) {
	a.stats, err = s.gate.Stats(m, bearer(r), market.DatasetID(r.PathValue("id")))
	return &a.stats, err
}

func readBalance(m *market.Market, r *http.Request, a *answers) (any, error) {
	bal, err := m.SellerBalance(market.SellerID(r.PathValue("id")))
	a.balance.Balance = bal.Float()
	return &a.balance, err
}

func readWait(m *market.Market, r *http.Request, a *answers) (_ any, err error) {
	dataset := queryParam(r, "dataset")
	if dataset == "" {
		return nil, missing("dataset")
	}
	a.wait.WaitPeriods, err = m.WaitRemaining(market.BuyerID(r.PathValue("id")), market.DatasetID(dataset))
	return &a.wait, err
}

func readTransactions(m *market.Market, _ *http.Request, _ *answers) (any, error) {
	return m.Transactions(), nil
}

// missing refuses a request without its query parameter param.
func missing(param string) error {
	return apierr.BadRequest("missing " + param + " query parameter")
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	_, ctx := stateOf(w)
	defer obs.StartSpan(ctx, "http.parse").End()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, apierr.MaxRequest))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil { // the value, then only whitespace
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeAPIError(w, status, apierr.CodeBadRequest, "bad request: "+err.Error())
	return false
}

// errorEnvelope is the versioned error body
// {"error":{"code":"...","message":"..."}}; its codes are apierr's.
type errorEnvelope struct {
	Error apierr.APIError `json:"error"`
}

// writeError writes err's envelope, with the code and status
// apierr.Classify gives it.
func writeError(w http.ResponseWriter, err error) {
	code, status := apierr.Classify(err)
	writeAPIError(w, status, code, err.Error())
}

// writeAPIError writes an envelope with an explicit code and status, for
// refusals that are no sentinel's (malformed JSON, unsigned bids).
func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorEnvelope{Error: apierr.APIError{Code: code, Message: message}})
}

// jsonContentType is shared by every JSON response, assigned under the
// canonical key: no code mutates a header value slice in place.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// queryParam is r.URL.Query().Get(key) without building the map: pairs
// holding a ';' or a bad escape are skipped, and the first value wins.
func queryParam(r *http.Request, key string) string {
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key || pair == "" || strings.Contains(pair, ";") {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
