package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/datamarket/shield/internal/obs"
)

// TestHTTPClientPropagatesTraceHeaders pins the HTTP transport's half
// of cross-process tracing: a context carrying an obs request ID sends
// X-Trace-ID (plus X-Trace-Sampled when a trace rides the context),
// and a bare context sends neither header.
func TestHTTPClientPropagatesTraceHeaders(t *testing.T) {
	type seen struct{ id, sampled string }
	headers := make(chan seen, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers <- seen{r.Header.Get("X-Trace-ID"), r.Header.Get("X-Trace-Sampled")}
		w.Write([]byte(`{"period":0}`))
	}))
	defer srv.Close()
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	tel := obs.NewTelemetry()
	const id = "req-00000001"
	tr := tel.Tracer.Begin(id, "client")
	ctx := obs.WithTrace(obs.WithRequestID(context.Background(), id), tr)
	if _, err := c.Period(ctx); err != nil {
		t.Fatal(err)
	}
	if got := <-headers; got.id != id || got.sampled != "1" {
		t.Fatalf("sampled request sent headers %+v, want id=%s sampled=1", got, id)
	}

	// Request ID without a trace: propagate the ID, not the sampled bit.
	ctx = obs.WithRequestID(context.Background(), "req-x")
	if _, err := c.Period(ctx); err != nil {
		t.Fatal(err)
	}
	if got := <-headers; got.id != "req-x" || got.sampled != "" {
		t.Fatalf("unsampled request sent headers %+v, want id=req-x and no sampled bit", got)
	}

	if _, err := c.Period(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := (<-headers); got.id != "" || got.sampled != "" {
		t.Fatalf("bare context sent trace headers %+v", got)
	}
}
