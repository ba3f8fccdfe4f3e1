// Package node assembles one market server, the one marketd runs: the
// market — in memory, journaled in a store directory, or a read replica
// following a leader — behind its JSON HTTP API, the optional wire and
// debug listeners, and the telemetry they all share. cmd/marketd parses
// its flags into a Config and calls Start; the load rig starts its
// leader and its followers the same way, so what the SLO smokes and
// metricslint gate is the server an operator runs.
package node

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/replica"
	"github.com/datamarket/shield/internal/wire"
)

// Config is what marketd's flags set; the flag of each field is named
// beside it.
type Config struct {
	// Market is the engine grid and the pricing seed (-epoch,
	// -candidates, -min, -max, -bpp, -seed). The seed also seeds the
	// tracer, so sampled trace sequences repeat run to run.
	Market market.Config
	// JournalDir is the store directory (-journal-dir): empty serves an
	// in-memory market, and with Follow it is the replica's local store.
	// Store, Fsync and GroupCommitWindow tune the store (-segment-bytes,
	// -checkpoint-every, -retain-segments, -fsync, -group-commit-window).
	JournalDir        string
	Store             journal.StoreConfig
	Fsync             bool
	GroupCommitWindow time.Duration
	// Auth requires HMAC-signed bids (-auth). OperatorToken is the
	// bearer token of the operator endpoints (-operator-token); with
	// Auth and no token one is minted and logged.
	Auth          bool
	OperatorToken string
	// TraceSample records 1 in N bid traces, 0 none (-trace-sample);
	// SlowOp logs the stage breakdown of every sampled request slower
	// than it, 0 none (-slow-op).
	TraceSample int
	SlowOp      time.Duration
	// Addr, WireAddr and DebugAddr are the HTTP, wire and debug listen
	// addresses (-addr, -wire-addr, -debug-addr); the last two are off
	// when empty, and port 0 binds an ephemeral port.
	Addr, WireAddr, DebugAddr string
	// Follow makes the node a read replica of the leader at
	// wire://host:port (-follow); MaxLag bounds how stale it may grow
	// before /readyz turns 503 (-max-lag, 0 for replica.DefaultMaxLag).
	Follow string
	MaxLag time.Duration
	// Logger takes the node's log and the per-request log; nil logs
	// nothing.
	Logger *slog.Logger
}

// The configurations Start refuses.
var (
	// ErrWireAuth: the wire protocol carries no bid signatures, so a
	// wire listener beside an auth-gated HTTP API would bypass -auth.
	ErrWireAuth = errors.New("node: -wire-addr is incompatible with -auth (the wire protocol has no bid signing)")
	// ErrFollowerServes: a replica serves no wire protocol, and it
	// refuses writes, so it cannot enroll buyers under -auth.
	ErrFollowerServes = errors.New("node: -follow is incompatible with -wire-addr and -auth")
	ErrFollowTarget   = errors.New("node: -follow must be wire://host:port")
	ErrTraceSample    = errors.New("node: -trace-sample must be a non-negative integer")
)

// Node is a running server.
type Node struct {
	// HTTPAddr, WireAddr and DebugAddr are the bound listen addresses
	// (host:port; the last two empty when off).
	HTTPAddr, WireAddr, DebugAddr string
	// Tel is the registry and trace ring every part of the node shares.
	Tel *obs.Telemetry
	// Market is a journaled leader's market, Follower a replica's (each
	// nil otherwise), and Feed the replication feed a journaled leader
	// serving wire attaches.
	Market   *journal.Market
	Follower *replica.Follower
	Feed     *replica.Feed

	dir     string // the journal directory, for Close's log
	logger  *slog.Logger
	servers []*http.Server
	wireLn  net.Listener
	// fresh holds the accepted HTTP connections yet to begin a request,
	// which Close closes: http.Server.Shutdown counts one idle only once
	// it is 5 s old. nil once Close has begun, when one is closed as it
	// is accepted.
	connMu sync.Mutex
	fresh  map[net.Conn]bool
}

// Start validates cfg, binds every listener cfg names, opens or follows
// the market and serves it on them. The replication feed attaches
// before the wire listener accepts, so it never misses a commit. On an
// error nothing is left running, and a listener that cannot bind is
// refused before the market opens, so it leaves no new store directory.
func Start(cfg Config) (_ *Node, err error) {
	target, _ := strings.CutPrefix(cfg.Follow, "wire://")
	switch {
	case cfg.WireAddr != "" && cfg.Auth:
		return nil, ErrWireAuth
	case cfg.Follow != "" && (cfg.WireAddr != "" || cfg.Auth):
		return nil, ErrFollowerServes
	case cfg.Follow != "" && (target == cfg.Follow || target == ""):
		return nil, fmt.Errorf("%w, not %q", ErrFollowTarget, cfg.Follow)
	case cfg.TraceSample < 0:
		return nil, fmt.Errorf("%w, not %d", ErrTraceSample, cfg.TraceSample)
	}
	n := &Node{dir: cfg.JournalDir, logger: cfg.Logger, fresh: map[net.Conn]bool{}, Tel: &obs.Telemetry{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(256, cfg.TraceSample, cfg.Market.Seed),
	}}
	if n.logger == nil {
		n.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var httpLn, debugLn net.Listener // Close closes them only once they serve
	defer func() {
		if err != nil {
			for _, ln := range []net.Listener{httpLn, debugLn} {
				if ln != nil {
					_ = ln.Close()
				}
			}
			_ = n.Close()
		}
	}()
	if cfg.DebugAddr != "" {
		if debugLn, err = net.Listen("tcp", cfg.DebugAddr); err != nil {
			return nil, fmt.Errorf("node: debug listener: %w", err)
		}
	}
	if cfg.WireAddr != "" {
		if n.wireLn, err = net.Listen("tcp", cfg.WireAddr); err != nil {
			return nil, fmt.Errorf("node: wire listener: %w", err)
		}
	}
	if httpLn, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, fmt.Errorf("node: http listener: %w", err)
	}

	obs.RegisterRuntimeMetrics(n.Tel.Registry)
	if cfg.SlowOp > 0 {
		// A tail-latency spike names the stage that caused it without a
		// second scrape; coverage follows the sampling rate.
		n.Tel.Tracer.OnSlow(cfg.SlowOp, func(ts obs.TraceSnapshot) {
			n.logger.Warn("marketd: slow op", "id", ts.ID, "op", ts.Name,
				"elapsed", time.Duration(ts.DurationUS)*time.Microsecond, "stages", ts.StageSummary())
		})
	}

	var api *httpapi.Server
	var backend wire.Backend
	switch {
	case cfg.Follow != "":
		n.Follower, err = replica.Start(replica.Config{
			Dial:      func() (net.Conn, error) { return net.Dial("tcp", target) },
			Name:      "marketd",
			MaxLag:    cfg.MaxLag,
			Telemetry: n.Tel,
			Dir:       cfg.JournalDir,
			Store:     cfg.Store,
		})
		if err != nil {
			return nil, fmt.Errorf("node: following %s: %w", cfg.Follow, err)
		}
		api = httpapi.NewReplica(n.Follower)
		n.logger.Info("marketd: read replica following leader", "leader", cfg.Follow, "max_lag", cfg.MaxLag, "dir", cfg.JournalDir)
	case cfg.JournalDir == "":
		m, err := market.New(cfg.Market)
		if err != nil {
			return nil, fmt.Errorf("node: building market: %w", err)
		}
		api, backend = httpapi.NewServer(m), m
	default:
		opts := []journal.Option{journal.WithTelemetry(n.Tel), journal.WithGroupCommit(cfg.GroupCommitWindow)}
		if cfg.Fsync {
			opts = append(opts, journal.WithFsync())
		}
		openStart := time.Now()
		var replayed int
		if n.Market, replayed, err = journal.OpenStore(cfg.Market, cfg.JournalDir, cfg.Store, opts...); err != nil {
			return nil, fmt.Errorf("node: opening journal %s: %w", cfg.JournalDir, err)
		}
		if took := time.Since(openStart); replayed > 0 {
			n.logger.Info("marketd: replayed journal", "events", replayed, "dir", cfg.JournalDir,
				"duration", took, "records_per_s", int(float64(replayed)/took.Seconds()))
		}
		inv := n.Market.Store().Inventory()
		n.logger.Info("marketd: journal open", "dir", cfg.JournalDir, "segments", len(inv.Segments),
			"checkpoints", len(inv.Checkpoints), "last_seq", inv.LastSeq, "last_checkpoint", inv.LastCheckpoint)
		api, backend = httpapi.NewJournaled(n.Market), n.Market
	}

	api = api.WithTelemetry(n.Tel).WithLogger(cfg.Logger)
	if cfg.Auth {
		api = api.WithAuth(auth.NewVerifier(func() ([]byte, error) {
			key := make([]byte, 32)
			_, err := rand.Read(key)
			return key, err
		}))
		n.logger.Info("marketd: HMAC bid signing required")
		if cfg.OperatorToken == "" {
			// Never leave the operator surface silently locked (or,
			// worse, open): mint a token and tell the operator.
			raw := make([]byte, 16)
			if _, err := rand.Read(raw); err != nil {
				return nil, fmt.Errorf("node: generating operator token: %w", err)
			}
			cfg.OperatorToken = hex.EncodeToString(raw)
			n.logger.Info("marketd: generated operator token", "token", cfg.OperatorToken)
		}
	}
	routes := api.WithOperatorToken(cfg.OperatorToken).Routes()

	if debugLn != nil {
		n.DebugAddr = n.serve(debugLn, &http.Server{Handler: debugMux(api)})
		n.logger.Info("marketd: debug listener", "addr", n.DebugAddr)
	}
	if n.wireLn != nil {
		n.WireAddr = n.wireLn.Addr().String()
		// A closed gate keeps stats off the wire (it carries no credentials).
		ws := wire.NewServer(backend).WithTelemetry(n.Tel).WithOperatorGate(apierr.NewGate(cfg.Auth, cfg.OperatorToken))
		if n.Market != nil {
			// A journaled leader with a wire listener is a replication
			// source: followers subscribe over the same port.
			if n.Feed, err = replica.NewFeed(n.Market, 0); err != nil {
				return nil, fmt.Errorf("node: replication feed: %w", err)
			}
			n.Feed.Instrument(n.Tel)
			ws = ws.WithReplication(n.Feed)
		}
		go func(ln net.Listener) {
			if err := ws.Serve(ln); !errors.Is(err, net.ErrClosed) {
				n.logger.Error("marketd: wire serve", "err", err)
			}
		}(n.wireLn)
		n.logger.Info("marketd: wire protocol listening", "addr", n.WireAddr, "replication", n.Feed != nil)
	}
	conns := n.Tel.Registry.Gauge("shield_http_connections", "Open HTTP connections.")
	n.HTTPAddr = n.serve(httpLn, &http.Server{Handler: routes, ConnState: func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			conns.Add(-1)
		}
	}})
	n.logger.Info("marketd: listening", "addr", n.HTTPAddr)
	return n, nil
}

// serve serves srv on ln until Close, returning the bound address.
func (n *Node) serve(ln net.Listener, srv *http.Server) string {
	srv.ReadHeaderTimeout = 5 * time.Second
	hook := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		n.connMu.Lock()
		switch {
		case st != http.StateNew:
			delete(n.fresh, c)
		case n.fresh == nil:
			_ = c.Close()
		default:
			n.fresh[c] = true
		}
		n.connMu.Unlock()
		if hook != nil {
			hook(c, st)
		}
	}
	n.servers = append(n.servers, srv)
	addr := ln.Addr().String()
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			n.logger.Error("marketd: serve", "addr", addr, "err", err)
		}
	}()
	return addr
}

// Close stops the node gracefully: the listeners stop accepting, a
// connection that has not begun a request is closed, and in-flight HTTP
// requests drain (for up to ten seconds), then the follower stops and
// the journal closes. Closing the journal syncs the log to disk, so a
// clean stop loses nothing even without Fsync.
func (n *Node) Close() error {
	var errs []error
	if n.wireLn != nil {
		_ = n.wireLn.Close()
	}
	n.connMu.Lock()
	for c := range n.fresh {
		_ = c.Close()
	}
	n.fresh = nil
	n.connMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range n.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	if n.Follower != nil {
		n.Follower.Close()
	}
	if n.Market != nil {
		if err := n.Market.Close(); err != nil {
			errs = append(errs, fmt.Errorf("node: closing journal %s: %w", n.dir, err))
		} else {
			n.logger.Info("marketd: journal closed cleanly", "dir", n.dir)
		}
	}
	return errors.Join(errs...)
}

// debugMux is the operator-only debug listener's handler: the profiles
// under /debug/pprof/, plus api's metrics and traces. The profiles are
// net/http/pprof's, which registers them on http.DefaultServeMux when a
// binary imports it: marketd does, and nothing else is reachable there,
// while a binary that only starts nodes (the load rig, the benchmark)
// links no pprof. It is ungated — reachable only on the debug address,
// which the operator should bind to localhost or a management network.
func debugMux(api *httpapi.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	api.OperatorRoutes(mux)
	return mux
}
