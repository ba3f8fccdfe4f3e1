package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/obs"
)

// WithTelemetry makes the server share t instead of building its own
// private Telemetry on first Routes call. Pass the same value to the
// journal's WithTelemetry option and the daemon's debug mux so one
// registry and one trace ring serve the whole process. Must be called
// before Routes.
func (s *Server) WithTelemetry(t *obs.Telemetry) *Server {
	s.tel = t
	return s
}

// WithLogger routes the structured request log (one line per request:
// id, route, status, elapsed) to l. Without one, none is formatted.
func (s *Server) WithLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// WithOperatorToken sets the bearer token ("" for none) of the operator
// gate (apierr.Gate) in front of GET /metrics, GET /debug/traces and GET
// /v1/datasets/{id}/stats. Must be called before Routes.
func (s *Server) WithOperatorToken(token string) *Server {
	s.opToken = token
	return s
}

// ensureTelemetry lazily builds the default Telemetry and instruments
// the market exactly once (family registration panics on duplicates by
// design, so this must not run twice even if Routes is called again).
func (s *Server) ensureTelemetry() {
	s.telOnce.Do(func() {
		if s.tel == nil {
			s.tel = obs.NewTelemetry()
		}
		// A replica server has no fixed market to instrument: the
		// follower's view is swapped wholesale on snapshot catch-up, and
		// the follower registers its own shield_replica_* gauges instead.
		if s.m != nil {
			s.m.Instrument(s.tel)
		}
		s.requests = obs.NewRequests(s.tel, "shield_http_request_seconds",
			"HTTP request latency by route pattern and status code.",
			"route", "http", "", strconv.Itoa)
		s.gate = apierr.NewGate(s.verifier != nil, s.opToken)
	})
}

// requestState is the one allocation the shield makes per request,
// handed to every handler as its writer. It holds the status the latency
// histogram and the request log read, the request's context,
// X-Request-ID's value slice and the handler's scratch: a bid's decode
// target and its encoding (which the commit stage reads while the handler
// waits) and the answer it encodes. encoding/json is given pointers into
// it, so no answer is boxed.
type requestState struct {
	http.ResponseWriter
	status int
	ctx    obs.RequestCtx
	id     [1]string
	bid    batchBidEntry
	body   [64]byte
	answer answers
}

// stateOf returns the request's state and the context its handler runs
// under. Every handler is served instrument's requestState as its
// writer; one served anything else is miswired, and panics here rather
// than journal and trace its writes without the request ID.
func stateOf(w http.ResponseWriter) (*requestState, context.Context) {
	st := w.(*requestState)
	return st, &st.ctx
}

func (w *requestState) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *requestState) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the outermost middleware: it runs the request through
// the obs.Requests lifecycle — an X-Trace-Id header is the caller's
// propagated ID and X-Trace-Sampled: 1 its sampling decision, the
// HTTP-side twin of the wire protocol's trace field — echoes the ID as
// X-Request-ID, and on completion logs one structured line. The route
// label is the mux pattern that matched — a bounded set — never the raw
// URL; the trace takes it as its name once routing has decided it.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := &requestState{ResponseWriter: w}
		st.ctx.Context = r.Context()
		// Header names are spelled canonically (X-Trace-Id), as they are
		// stored either way: Get and Set then copy no key per request.
		tr := s.requests.Begin(&st.ctx, r.Header.Get("X-Trace-Id"), r.Header.Get("X-Trace-Sampled") == "1", start)
		st.id[0] = obs.RequestIDFrom(&st.ctx)
		w.Header()["X-Request-Id"] = st.id[:] // canonical key; see jsonContentType
		// Handlers read the request's context from st (stateOf), so r is
		// not copied to carry it.
		mux.ServeHTTP(st, r)
		// ServeMux writes the matched pattern back onto this request
		// before dispatching (Go 1.22+), so it is readable here.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if st.status == 0 {
			st.status = http.StatusOK
		}
		elapsed := s.requests.End(&st.ctx, route, st.status, start)
		s.tel.Tracer.Finish(tr)
		if s.logger != nil {
			s.logger.LogAttrs(&st.ctx, slog.LevelInfo, "request",
				slog.String("id", st.id[0]),
				slog.String("route", route),
				slog.Int("status", st.status),
				slog.Duration("elapsed", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// operatorOnly puts h behind the operator gate (apierr.Gate).
func (s *Server) operatorOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.gate.Admit(bearer(r)); err != nil {
			writeError(w, err)
			return
		}
		h(w, r)
	}
}

// bearer returns the request's bearer token, "" for none. The scheme is
// matched in any case (RFC 9110 §11.1) and may be followed by more than
// one space (§11.3's 1*SP).
func bearer(r *http.Request) string {
	scheme, tok, ok := strings.Cut(r.Header.Get("Authorization"), " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") {
		return ""
	}
	return strings.TrimLeft(tok, " ")
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the market is restored and the journal
// (when there is one) can still persist writes. A poisoned or closed
// journal answers 503 — the daemon serves reads but must be rotated out
// of write traffic. Replicas answer with their staleness alongside the
// verdict (see handleReplicaReadyz).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.replica != nil {
		s.handleReplicaReadyz(w)
		return
	}
	if s.ready != nil {
		if err := s.ready(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"status": "unready", "reason": err.Error()})
			return
		}
	}
	if s.store != nil {
		// Segmented journal: the ready body carries the store inventory,
		// so an operator's probe shows segment and checkpoint rollover
		// without a separate tool. The unready body above stays flat.
		inv := s.store.Inventory()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready",
			"journal": map[string]any{
				"dir":                 inv.Dir,
				"segments":            len(inv.Segments),
				"checkpoints":         len(inv.Checkpoints),
				"first_seq":           inv.FirstSeq,
				"last_seq":            inv.LastSeq,
				"last_checkpoint_seq": inv.LastCheckpoint,
				"total_bytes":         inv.TotalBytes,
			},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the shared obs registry in the Prometheus text
// exposition format. Every family — market books, per-dataset engine
// diagnostics, HTTP latency, journal durability —
// is registered on the registry by the layer that owns it, and
// WritePrometheus owns ordering and escaping; nothing is hand-written
// here. Like the stats endpoint this is operator-facing: posting prices
// per dataset must not be reachable by buyers, so the route sits behind
// the operator gate when auth is configured.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.Registry.WritePrometheus(w)
}

// OperatorRoutes adds the operator reads, GET /metrics and GET
// /debug/traces, to mux without the operator gate, for a listener only
// the operator reaches (marketd -debug-addr). Call it after Routes.
func (s *Server) OperatorRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
}

// handleTraces serves the most recent completed bid-lifecycle traces,
// newest first, with the count of traces already evicted from the ring.
// With ?id=req-... it instead resolves one request ID to its full
// stage breakdown — the lookup that /metrics histogram exemplars link
// to.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := queryParam(r, "id"); id != "" {
		snap, ok := s.tel.Tracer.Find(id)
		if !ok {
			writeAPIError(w, http.StatusNotFound, apierr.CodeBadRequest,
				"no completed trace for id "+id+" (evicted, unsampled, or never seen)")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"trace": snap})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dropped": s.tel.Tracer.Dropped(),
		"traces":  s.tel.Tracer.Recent(64),
	})
}
