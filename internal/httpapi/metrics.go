package httpapi

import "net/http"

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
