package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

func testConfig() market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 9,
	}
}

// operatorGet issues a GET with an optional bearer token.
func operatorGet(t *testing.T, ts *httptest.Server, path, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

var operatorPaths = []string{"/metrics", "/debug/traces", "/v1/datasets/x/stats"}

// TestOperatorEndpointsGated pins the operator-gate contract: with bid
// auth enabled, /metrics, /debug/traces and /v1/datasets/{id}/stats
// require the configured bearer token (posting prices and traces are
// exactly what the shield keeps from buyers).
func TestOperatorEndpointsGated(t *testing.T) {
	m := market.MustNew(testConfig())
	srv := NewServer(m).WithAuth(auth.NewVerifier(nil)).WithOperatorToken("sekrit")
	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()

	for _, path := range operatorPaths {
		if got := operatorGet(t, ts, path, "").StatusCode; got != http.StatusUnauthorized {
			t.Errorf("GET %s without token = %d, want 401", path, got)
		}
		if got := operatorGet(t, ts, path, "wrong").StatusCode; got != http.StatusUnauthorized {
			t.Errorf("GET %s with wrong token = %d, want 401", path, got)
		}
		if got := operatorGet(t, ts, path, "sekrit").StatusCode; got == http.StatusUnauthorized {
			t.Errorf("GET %s with operator token = 401, want authorized", path)
		}
	}
	// Public endpoints stay open under auth.
	if got := operatorGet(t, ts, "/healthz", "").StatusCode; got != http.StatusOK {
		t.Errorf("GET /healthz under auth = %d, want 200", got)
	}
}

// TestBearerSchemeIsCaseInsensitive: the Authorization scheme matches
// in any case (RFC 9110 §11.1), so "bearer <token>" reads /metrics; the
// token itself still has to be right.
func TestBearerSchemeIsCaseInsensitive(t *testing.T) {
	m := market.MustNew(testConfig())
	ts := httptest.NewServer(NewServer(m).WithAuth(auth.NewVerifier(nil)).WithOperatorToken("sekrit").Routes())
	defer ts.Close()
	for header, want := range map[string]int{
		"bearer sekrit": http.StatusOK,
		"BEARER sekrit": http.StatusOK,
		"bearer wrong":  http.StatusUnauthorized,
		"Basic sekrit":  http.StatusUnauthorized,
		"bearersekrit":  http.StatusUnauthorized,
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /metrics with Authorization %q = %d, want %d", header, resp.StatusCode, want)
		}
	}
}

// TestOperatorEndpointsFailClosed: auth on but no operator token
// configured means the operator endpoints lock shut rather than open.
func TestOperatorEndpointsFailClosed(t *testing.T) {
	m := market.MustNew(testConfig())
	ts := httptest.NewServer(NewServer(m).WithAuth(auth.NewVerifier(nil)).Routes())
	defer ts.Close()
	for _, path := range operatorPaths {
		if got := operatorGet(t, ts, path, "anything").StatusCode; got != http.StatusUnauthorized {
			t.Errorf("GET %s with auth and no operator token = %d, want 401", path, got)
		}
	}
}

// TestOperatorEndpointsOpenWithoutAuth: a development deployment with
// neither bid auth nor a token keeps the operator endpoints open.
func TestOperatorEndpointsOpenWithoutAuth(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/metrics", "/debug/traces"} {
		if got := operatorGet(t, ts, path, "").StatusCode; got != http.StatusOK {
			t.Errorf("GET %s without auth = %d, want 200", path, got)
		}
	}
}

// failAfterWriter passes through n writes, then fails every write.
type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk gone")
	}
	w.n--
	return len(p), nil
}

// TestReadyz pins the readiness contract: an unjournaled server is
// always ready; a journaled server goes unready (503) the moment its
// journal writer is poisoned, while liveness stays 200.
func TestReadyz(t *testing.T) {
	ts := testServer(t)
	var out map[string]string
	if resp := get(t, ts, "/readyz", &out); resp.StatusCode != http.StatusOK || out["status"] != "ready" {
		t.Fatalf("unjournaled readyz: %d %v", resp.StatusCode, out)
	}

	// Journaled server whose sink dies after the genesis record.
	jm, err := journal.NewMarket(testConfig(), &failAfterWriter{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	jts := httptest.NewServer(NewJournaled(jm).Routes())
	defer jts.Close()
	if resp := get(t, jts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("journaled readyz before poison = %d, want 200", resp.StatusCode)
	}
	// This write poisons the journal: the command is applied but its
	// record never lands, so it is refused, stays invisible, and the
	// daemon must stop taking writes.
	if resp, _ := post(t, jts, "/v1/sellers", map[string]string{"id": "s"}); resp.StatusCode < 500 {
		t.Fatalf("registration whose record could not be written = %d, want 5xx", resp.StatusCode)
	}
	if resp := get(t, jts, "/v1/sellers/s/balance", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unpersisted seller's balance = %d, want 404: nothing is visible before it is durable", resp.StatusCode)
	}
	var unready map[string]string
	if resp := get(t, jts, "/readyz", &unready); resp.StatusCode != http.StatusServiceUnavailable || unready["status"] != "unready" {
		t.Fatalf("journaled readyz after poison: %d %v", resp.StatusCode, unready)
	}
	if resp := get(t, jts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after poison = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestReadyzStoreInventory: a server over a segmented journal reports
// the store's segment/checkpoint inventory in its ready body.
func TestReadyzStoreInventory(t *testing.T) {
	jm, _, err := journal.OpenStore(testConfig(), t.TempDir(),
		journal.StoreConfig{SegmentRecords: 4, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	for i := 0; i < 10; i++ {
		if err := jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	jts := httptest.NewServer(NewJournaled(jm).Routes())
	defer jts.Close()
	var out map[string]any
	if resp := get(t, jts, "/readyz", &out); resp.StatusCode != http.StatusOK || out["status"] != "ready" {
		t.Fatalf("store-backed readyz: %d %v", resp.StatusCode, out)
	}
	inv, ok := out["journal"].(map[string]any)
	if !ok {
		t.Fatalf("ready body has no journal inventory: %v", out)
	}
	if segs, _ := inv["segments"].(float64); segs < 2 {
		t.Fatalf("inventory reports %v segments, want >= 2 after rotation", inv["segments"])
	}
	if last, _ := inv["last_seq"].(float64); int64(last) != jm.LastSeq() {
		t.Fatalf("inventory last_seq %v, market at %d", inv["last_seq"], jm.LastSeq())
	}
}

// TestRequestIDHeader: every response carries the minted request ID.
func TestRequestIDHeader(t *testing.T) {
	ts := testServer(t)
	resp := get(t, ts, "/v1/datasets", nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}
}

// TestBidTraceRetrievable is the telemetry layer's acceptance test: a
// single bid through the HTTP API of a journaled (fsynced) server
// yields a retrievable trace whose spans name every stage of the bid
// lifecycle, and the journal record carries the same request ID so a
// log line, a journal event and a trace all join on it.
func TestBidTraceRetrievable(t *testing.T) {
	dir := t.TempDir()
	jm, _, err := journal.OpenStore(testConfig(), dir, journal.StoreConfig{}, journal.WithFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	ts := httptest.NewServer(NewJournaled(jm).Routes())
	defer ts.Close()

	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})
	post(t, ts, "/v1/buyers", map[string]string{"id": "bob"})
	resp, _ := post(t, ts, "/v1/bids", map[string]any{"buyer": "bob", "dataset": "d", "amount": 150.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bid: %d", resp.StatusCode)
	}
	bidID := resp.Header.Get("X-Request-ID")
	if bidID == "" {
		t.Fatal("bid response missing X-Request-ID")
	}

	// The journal event for the bid records the request ID.
	var bidEvent *journal.Event
	if err := journal.ScanDir(dir, func(_ string, e journal.Event) error {
		if e.Op == journal.OpBid {
			bidEvent = &e
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bidEvent == nil {
		t.Fatal("no bid event journaled")
	}
	if bidEvent.Trace != bidID {
		t.Fatalf("journal event trace = %q, want %q", bidEvent.Trace, bidID)
	}

	// The trace is retrievable and carries the lifecycle spans.
	var out struct {
		Traces []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	get(t, ts, "/debug/traces", &out)
	var spans []string
	for _, tr := range out.Traces {
		if tr.ID != bidID {
			continue
		}
		if tr.Name != "POST /v1/bids" {
			t.Errorf("trace name = %q, want POST /v1/bids", tr.Name)
		}
		for _, sp := range tr.Spans {
			spans = append(spans, sp.Name)
		}
	}
	// One pipeline, one vocabulary: the journal's stages are the group
	// commit's whether or not anyone else shared the group.
	want := []string{"http.parse", "group_commit.queue_wait", "apply", "group_commit.append", "group_commit.fsync", "publish"}
	if !slices.Equal(spans, want) {
		t.Errorf("trace %s spans %v, want %v", bidID, spans, want)
	}
}

// TestRequestLog: a server given a logger writes exactly one line per
// request, carrying the request ID it answered with, the route pattern
// that matched and the status it sent.
func TestRequestLog(t *testing.T) {
	var lines bytes.Buffer
	h := NewServer(market.MustNew(testConfig())).WithLogger(slog.New(slog.NewJSONHandler(&lines, nil))).Routes()
	for _, c := range []struct {
		method, path, body, route string
		status                    int
	}{
		{"GET", "/v1/period", "", "GET /v1/period", http.StatusOK},
		{"POST", "/v1/sellers", `{"id":"acme"}`, "POST /v1/sellers", http.StatusCreated},
		{"GET", "/v1/datasets/nope/stats", "", "GET /v1/datasets/{id}/stats", http.StatusNotFound},
		{"GET", "/nowhere", "", "unmatched", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		logged := strings.Split(strings.TrimSuffix(lines.String(), "\n"), "\n")
		lines.Reset()
		if rec.Code != c.status || len(logged) != 1 {
			t.Fatalf("%s %s: status %d, %d log lines %q; want %d and one line", c.method, c.path, rec.Code, len(logged), logged, c.status)
		}
		var line struct {
			Msg, ID, Route string
			Status         int
		}
		if err := json.Unmarshal([]byte(logged[0]), &line); err != nil {
			t.Fatal(err)
		}
		if id := rec.Header().Get("X-Request-Id"); line.Msg != "request" || line.ID != id || id == "" || line.Route != c.route || line.Status != c.status {
			t.Errorf("%s %s logged %s; want request id %q, route %q, status %d", c.method, c.path, logged[0], id, c.route, c.status)
		}
	}
}
