package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/market"
)

// traceRequest posts a bid carrying the propagated trace headers and
// returns the response.
func traceRequest(t *testing.T, ts *httptest.Server, traceID string, sampled bool) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"buyer": "bob", "dataset": "d", "amount": 150.0})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bids", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-ID", traceID)
	if sampled {
		req.Header.Set("X-Trace-Sampled", "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestInboundTraceHeadersAdopted pins the HTTP half of cross-process
// trace propagation: a request carrying X-Trace-ID executes (and
// echoes X-Request-ID) under the caller's ID, a sampled one lands in
// the ring retrievable via /debug/traces?id=, and an unsampled one
// stays out of the ring — the originator's sampling decision is
// authoritative.
func TestInboundTraceHeadersAdopted(t *testing.T) {
	m := market.MustNew(testConfig())
	ts := httptest.NewServer(NewServer(m).Routes())
	defer ts.Close()

	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})
	post(t, ts, "/v1/buyers", map[string]string{"id": "bob"})

	resp := traceRequest(t, ts, "req-peer-00000001", true)
	if got := resp.Header.Get("X-Request-ID"); got != "req-peer-00000001" {
		t.Fatalf("X-Request-ID = %q, want the propagated id", got)
	}

	var out struct {
		Trace struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if got := get(t, ts, "/debug/traces?id=req-peer-00000001", &out).StatusCode; got != http.StatusOK {
		t.Fatalf("trace lookup = %d, want 200", got)
	}
	if out.Trace.ID != "req-peer-00000001" || out.Trace.Name != "POST /v1/bids" {
		t.Fatalf("looked-up trace = %+v", out.Trace)
	}
	var names []string
	for _, sp := range out.Trace.Spans {
		names = append(names, sp.Name)
	}
	if !strings.Contains(strings.Join(names, " "), "apply") {
		t.Fatalf("adopted trace spans %v missing the bid lifecycle", names)
	}

	// Unsampled propagation: the ID is honored, the ring is not touched.
	resp = traceRequest(t, ts, "req-peer-00000002", false)
	if got := resp.Header.Get("X-Request-ID"); got != "req-peer-00000002" {
		t.Fatalf("X-Request-ID = %q, want the propagated id", got)
	}
	var errOut map[string]any
	if got := get(t, ts, "/debug/traces?id=req-peer-00000002", &errOut).StatusCode; got != http.StatusNotFound {
		t.Fatalf("unsampled trace lookup = %d, want 404", got)
	}
}
