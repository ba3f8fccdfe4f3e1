package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
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

// TestWritesJournalTheirRequestID: every HTTP write — registrations,
// uploads, compositions, withdrawals, ticks, not only bids — journals
// the ID it executed under (the X-Request-ID it answered with) as its
// record's trace, exactly as the same commands over an instrumented wire
// server do: given the same propagated IDs the two journals are the same
// bytes.
func TestWritesJournalTheirRequestID(t *testing.T) {
	ctx := context.Background()
	ops := []func(context.Context, client.Client) error{
		func(ctx context.Context, c client.Client) error { return c.RegisterSeller(ctx, "s") },
		func(ctx context.Context, c client.Client) error { return c.UploadDataset(ctx, "s", "d1") },
		func(ctx context.Context, c client.Client) error { return c.UploadDataset(ctx, "s", "d2") },
		func(ctx context.Context, c client.Client) error { return c.ComposeDataset(ctx, "combo", "d1", "d2") },
		func(ctx context.Context, c client.Client) error { _, err := c.RegisterBuyer(ctx, "bob"); return err },
		func(ctx context.Context, c client.Client) error { return c.UploadDataset(ctx, "s", "d3") },
		func(ctx context.Context, c client.Client) error { return c.WithdrawDataset(ctx, "s", "d3") },
		func(ctx context.Context, c client.Client) error { _, err := c.Tick(ctx); return err },
	}
	serve := map[string]func(t *testing.T, jm *journal.Market) string{
		"http": func(t *testing.T, jm *journal.Market) string {
			ts := httptest.NewServer(NewJournaled(jm).Routes())
			t.Cleanup(ts.Close)
			return ts.URL
		},
		"wire": func(t *testing.T, jm *journal.Market) string {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go func() { _ = wire.NewServer(jm).WithTelemetry(obs.NewTelemetry()).Serve(l) }()
			return "wire://" + l.Addr().String()
		},
	}
	logs := map[string][]byte{}
	for name, start := range serve {
		var sink bytes.Buffer
		jm, err := journal.NewMarket(testConfig(), &sink)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(start(t, jm))
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if err := op(obs.WithRequestID(ctx, fmt.Sprintf("req-peer-%08d", i)), c); err != nil {
				t.Fatalf("%s: op %d: %v", name, i, err)
			}
		}
		c.Close()
		if err := jm.Close(); err != nil {
			t.Fatal(err)
		}
		var traces []string
		if _, _, err := journal.Scan(bytes.NewReader(sink.Bytes()), 1, func(e journal.Event) error {
			if e.Op != journal.OpGenesis {
				traces = append(traces, e.Trace)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(traces) != len(ops) {
			t.Fatalf("%s: journal holds %d records after %d writes", name, len(traces), len(ops))
		}
		for i, tr := range traces {
			if want := fmt.Sprintf("req-peer-%08d", i); tr != want {
				t.Errorf("%s: record %d carries trace %q, want its request's %q", name, i+1, tr, want)
			}
		}
		logs[name] = sink.Bytes()
	}
	if !bytes.Equal(logs["http"], logs["wire"]) {
		t.Error("the same writes journal different bytes over HTTP and over wire")
	}
}
