package httpapi

import (
	"net/http"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/market"
)

// ReplicaSource is the state a read-replica server serves from: a
// follower that maintains a local market by applying the leader's
// replicated command stream (internal/replica.Follower implements it).
// Market may return nil before the first catch-up completes; the server
// answers such reads with CodeReplicaUnavailable rather than a panic.
type ReplicaSource interface {
	// Market returns the follower's current read view, or nil while no
	// state has been restored yet.
	Market() *market.Market
	// Ready reports whether the replica should receive read traffic:
	// non-nil when it has no state, has diverged, or its staleness
	// exceeds the configured bound.
	Ready() error
	// Staleness reports the follower's applied seq, its best knowledge
	// of the leader's seq, seconds since it last proved currency, and
	// whether the replication stream is currently connected.
	Staleness() (applied, leader int64, lagSeconds float64, connected bool)
	// PersistErr reports why the follower's local store stopped taking
	// records, nil while it is healthy or when there is none. The
	// follower serves on from memory, so it leaves Ready alone.
	PersistErr() error
}

// NewReplica builds a read-only Server over a replication follower.
// Every read endpoint serves from the follower's local market — no
// round-trip to the leader — and every mutating endpoint (including
// /v1/tick) answers CodeReadOnlyReplica with 403. /readyz reports the
// follower's staleness alongside its readiness so load balancers can
// rotate a lagging replica out of the read pool.
func NewReplica(src ReplicaSource) *Server {
	return &Server{
		replica: src,
		mut:     apierr.ReadOnly{},
		ready:   src.Ready,
	}
}

// handleReplicaReadyz is /readyz on a replica: the usual ready/unready
// verdict plus the staleness numbers operators alert on, and
// "persist_error" when the local store has failed. The same numbers are
// exported as shield_replica_* gauges; this endpoint is the
// per-instance view a load balancer's health check reads.
func (s *Server) handleReplicaReadyz(w http.ResponseWriter) {
	applied, leader, lag, connected := s.replica.Staleness()
	body := map[string]any{
		"role":        "replica",
		"applied_seq": applied,
		"leader_seq":  leader,
		"lag_seconds": lag,
		"connected":   connected,
	}
	if err := s.replica.PersistErr(); err != nil {
		body["persist_error"] = err.Error()
	}
	if err := s.replica.Ready(); err != nil {
		body["status"] = "unready"
		body["reason"] = err.Error()
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}
