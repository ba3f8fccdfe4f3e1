package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// TestHTTPInstrumentAllocs is the request middleware's allocation
// budget: what instrument adds to one GET /v1/period, measured as the
// instrumented handler minus the bare mux over the same request and a
// recorder, the mux handed one requestState reused across runs (its
// handlers are served nothing else). With tracing
// sampled out that is the minted request ID and requestState, which
// holds the status writer, the request context, the X-Request-ID header
// value and the handler's answer; the request is not copied. (With a
// separate status writer, two context links, the trace name built
// whether or not the request is traced, header keys canonicalized per
// request, and a strconv plus label join for the latency series, this
// read 11; with the header value built by Header().Set, 4; with the
// request copy WithContext made, 3.)
func TestHTTPInstrumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewServer(market.MustNew(testConfig())).
		WithTelemetry(&obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(16, 0, 1)})
	s.ensureTelemetry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/period", s.read(readPeriod))
	req := httptest.NewRequest(http.MethodGet, "/v1/period", nil)
	allocs := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /v1/period = %d", rec.Code)
			}
		})
	}
	st := new(requestState)
	bare := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.ResponseWriter = w
		mux.ServeHTTP(st, r)
	})
	if own := allocs(s.instrument(mux)) - allocs(bare); own > 2 {
		t.Fatalf("instrument adds %.1f allocations to a request, want <= 2", own)
	} else {
		t.Logf("instrument adds %.1f allocations", own)
	}
}
