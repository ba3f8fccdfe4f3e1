// Command marketd serves a protected data market over a JSON HTTP API:
// sellers upload datasets, the arbiter prices them with the
// shielded multiplicative-weights algorithm, buyers bid and receive
// immediate allocation decisions or Time-Shield waits.
//
// Usage:
//
//	marketd [-addr :8080] [-epoch 8] [-candidates 40] [-min 1] [-max 200]
//	        [-seed 2022] [-journal-dir market.d] [-fsync] [-auth]
//	        [-checkpoint-every 10000]
//	        [-retain-segments 0] [-segment-bytes 8388608]
//	        [-group-commit-window 0s] [-wire-addr :9090]
//	        [-follow wire://leader:9090] [-max-lag 5s]
//	        [-operator-token secret] [-trace-sample 1] [-slow-op 50ms]
//	        [-debug-addr 127.0.0.1:6060]
//
// With -journal-dir, every successful operation is appended to a
// segmented journal in that directory and the full market state is
// rebuilt from it on restart: the log rotates across sealed segment
// files, a snapshot checkpoint lands every -checkpoint-every records,
// restart replays only the records past the newest checkpoint, and
// checkpoint-covered segments are deleted in the background
// (-retain-segments spares; negative keeps all). -fsync additionally
// syncs the log to disk after every record, trading append latency for
// zero data loss on power failure (without it a crash of the machine —
// not just the process — can lose recently buffered events; recovery
// still works either way, replaying the longest durable prefix).
// /readyz reports the segment/checkpoint inventory. With -follow,
// -journal-dir gives the replica a local store so a cold restart resumes
// from its own disk instead of re-downloading a leader snapshot.
//
// A store or journal file an older release wrote is refused, naming the
// command that rewrites it once, offline: `marketctl journal-migrate PATH`.
// The journal always coalesces concurrent appends into one write and
// one fsync without weakening the per-acknowledgment durability
// guarantee; -group-commit-window bounds how long a group leader waits
// for followers (see journal.WithGroupCommit).
// With -auth, buyer registration returns an HMAC credential and every bid
// must be signed with it (false-name bidding deterrence; see
// internal/auth).
//
// -wire-addr starts a second listener speaking the binary wire protocol
// (internal/wire): persistent connections, pipelined length-prefixed
// frames, the same market semantics and error codes as the JSON API at a
// fraction of the per-bid cost. Clients connect with
// shield.Dial("wire://host:port") or marketctl -server wire://host:port.
// The wire protocol carries no bid signatures, so -wire-addr refuses to
// start under -auth, and no operator token, so with -operator-token its
// stats query answers unauthorized.
//
// A journaled daemon with -wire-addr is also a replication leader: read
// replicas started with
//
//	marketd -follow wire://leader:9090 -addr :8081
//
// catch up from a state snapshot, then apply the leader's committed
// command stream live. A replica serves every read endpoint from its
// local state, answers all writes with 403 read_only_replica, reports
// its staleness on /readyz (applied_seq, leader_seq, lag_seconds) and
// as shield_replica_* gauges, and reconnects with backoff when the
// leader goes away. -max-lag bounds how stale a replica may grow before
// /readyz turns 503 and a load balancer should rotate it out.
//
// The daemon is fully instrumented (see internal/obs): every request
// gets an ID and a structured log line, bids leave sampled lifecycle
// traces (-trace-sample records 1 in N; 0 disables), and /metrics
// serves the shared registry plus process self-metrics (goroutines,
// heap, GC pauses, open connections). -slow-op logs a structured
// warning with the full per-stage breakdown (wire.read, decode,
// group_commit.fsync, apply, ...) for every sampled request slower
// than the threshold. With -auth the operator endpoints
// (/metrics, /debug/traces, dataset stats) require the bearer token
// from -operator-token; if -auth is set without a token one is
// generated and logged at startup so the operator surface never silently
// opens. -debug-addr starts a second, operator-only listener with
// net/http/pprof plus the same metrics and trace endpoints, ungated —
// bind it to localhost.
//
// See internal/httpapi for the endpoint list.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/replica"
	"github.com/datamarket/shield/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		epoch       = flag.Int("epoch", 8, "Epoch-Shield size E (bids per price update)")
		candidates  = flag.Int("candidates", 40, "number of posting-price candidates")
		minPrice    = flag.Float64("min", 1, "lowest candidate price (also the bid floor)")
		maxPrice    = flag.Float64("max", 200, "highest candidate price")
		bpp         = flag.Int("bpp", 1, "expected bids per market period (Time-Shield conversion)")
		seed        = flag.Uint64("seed", 2022, "pricing randomness seed")
		journalDir  = flag.String("journal-dir", "", "journal directory: rotated segment files plus snapshot checkpoints, recovery replays only the tail past the newest checkpoint")
		ckptEvery   = flag.Int64("checkpoint-every", 0, "write a snapshot checkpoint every N committed records (0 = default 10000, negative disables)")
		retainSegs  = flag.Int("retain-segments", 0, "checkpoint-covered sealed segments to keep beyond what recovery needs (negative keeps all)")
		segBytes    = flag.Int64("segment-bytes", 0, "rotate the active segment at this size (0 = default 8 MiB)")
		fsync       = flag.Bool("fsync", false, "fsync the journal after every record (durable across power loss, slower appends)")
		useAuth     = flag.Bool("auth", false, "require HMAC-signed bids")
		opToken     = flag.String("operator-token", "", "bearer token for operator endpoints (auto-generated with -auth when empty)")
		traceSample = flag.Int("trace-sample", 1, "record 1 in N bid-lifecycle traces (0 disables tracing)")
		slowOp      = flag.Duration("slow-op", 0, "log a structured stage breakdown for sampled requests slower than this (0 disables)")
		debugAddr   = flag.String("debug-addr", "", "operator-only debug listener with pprof, metrics and traces (off when empty; bind to localhost)")
		wireAddr    = flag.String("wire-addr", "", "binary wire-protocol listener (off when empty; incompatible with -auth)")
		gcWindow    = flag.Duration("group-commit-window", 0, "how long a journal group leader waits for followers (0 batches only what is already queued)")
		follow      = flag.String("follow", "", "run as a read replica of the leader at wire://host:port (read-only HTTP; incompatible with -wire-addr and -auth)")
		maxLag      = flag.Duration("max-lag", replica.DefaultMaxLag, "with -follow: /readyz turns 503 when the replica has not proven currency for this long")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	if *wireAddr != "" && *useAuth {
		// The wire protocol carries no bid signatures; serving it beside
		// an auth-gated HTTP API would silently bypass -auth.
		logger.Error("marketd: -wire-addr is incompatible with -auth (the wire protocol has no bid signing)")
		os.Exit(1)
	}
	if *follow != "" && (*wireAddr != "" || *useAuth) {
		// A replica serves no wire protocol and cannot enroll buyers
		// (writes are rejected). -journal-dir it does take: its local
		// store, for cold restarts without a leader snapshot.
		logger.Error("marketd: -follow is incompatible with -wire-addr and -auth")
		os.Exit(1)
	}

	if *traceSample < 0 {
		logger.Error("marketd: bad -trace-sample (want a non-negative integer)", "value", *traceSample)
		os.Exit(1)
	}
	// One Telemetry for the whole process: the API server, the market,
	// the journal and the debug listener all share its registry and
	// trace ring. The tracer inherits the pricing seed so sampled trace
	// sequences are reproducible run to run.
	tel := &obs.Telemetry{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(256, *traceSample, *seed),
	}
	obs.RegisterRuntimeMetrics(tel.Registry)
	if *slowOp > 0 {
		// Every sampled request slower than -slow-op logs its full stage
		// breakdown (wire.read=... group_commit.fsync=... apply=...), so
		// a tail-latency spike names the stage that caused it without a
		// second scrape. Coverage follows the sampling rate.
		tel.Tracer.OnSlow(*slowOp, func(ts obs.TraceSnapshot) {
			logger.Warn("marketd: slow op",
				"id", ts.ID,
				"op", ts.Name,
				"elapsed", time.Duration(ts.DurationUS)*time.Microsecond,
				"stages", ts.StageSummary(),
			)
		})
	}

	cfg := market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(*minPrice, *maxPrice, *candidates),
			EpochSize:     *epoch,
			BidsPerPeriod: *bpp,
			MinBid:        *minPrice,
		},
		Seed: *seed,
		// Recorded, selects nothing; kept so a fresh log's genesis is
		// byte-identical to one written before -shards was removed.
		Shards: market.DefaultShards,
	}

	storeCfg := journal.StoreConfig{
		SegmentBytes:    *segBytes,
		CheckpointEvery: *ckptEvery,
		RetainSegments:  *retainSegs,
	}
	var srvHandler *httpapi.Server
	var backend wire.Backend
	var jm *journal.Market
	var follower *replica.Follower
	switch {
	case *follow != "":
		target, ok := strings.CutPrefix(*follow, "wire://")
		if !ok || target == "" {
			logger.Error("marketd: -follow must be wire://host:port", "value", *follow)
			os.Exit(1)
		}
		f, err := replica.Start(replica.Config{
			Dial:      func() (net.Conn, error) { return net.Dial("tcp", target) },
			Name:      "marketd",
			MaxLag:    *maxLag,
			Telemetry: tel,
			Dir:       *journalDir,
			Store:     storeCfg,
		})
		if err != nil {
			logger.Error("marketd: starting follower", "leader", *follow, "err", err)
			os.Exit(1)
		}
		follower = f
		srvHandler = httpapi.NewReplica(f)
		if *journalDir != "" {
			logger.Info("marketd: replica persists locally", "dir", *journalDir)
		}
		logger.Info("marketd: read replica following leader", "leader", *follow, "max_lag", *maxLag)
	case *journalDir == "":
		m, err := market.New(cfg)
		if err != nil {
			logger.Error("marketd: building market", "err", err)
			os.Exit(1)
		}
		srvHandler = httpapi.NewServer(m)
		backend = m
	default:
		opts := []journal.Option{journal.WithTelemetry(tel), journal.WithGroupCommit(*gcWindow)}
		if *fsync {
			opts = append(opts, journal.WithFsync())
		}
		var err error
		if jm, err = openJournal(cfg, *journalDir, storeCfg, opts, logger); err != nil {
			logger.Error("marketd: opening journal", "dir", *journalDir, "err", err)
			os.Exit(1)
		}
		srvHandler = httpapi.NewJournaled(jm)
		backend = jm
	}
	srvHandler = srvHandler.WithTelemetry(tel).WithLogger(logger)

	if *useAuth {
		srvHandler = srvHandler.WithAuth(auth.NewVerifier(func() ([]byte, error) {
			key := make([]byte, 32)
			_, err := rand.Read(key)
			return key, err
		}))
		logger.Info("marketd: HMAC bid signing required")
		if *opToken == "" {
			// Never leave the operator surface silently locked (or,
			// worse, open): mint a token and tell the operator.
			raw := make([]byte, 16)
			if _, err := rand.Read(raw); err != nil {
				logger.Error("marketd: generating operator token", "err", err)
				os.Exit(1)
			}
			*opToken = hex.EncodeToString(raw)
			logger.Info("marketd: generated operator token", "token", *opToken)
		}
	}
	srvHandler = srvHandler.WithOperatorToken(*opToken)

	if *debugAddr != "" {
		go serveDebug(*debugAddr, tel, logger)
	}

	// The wire listener shares the HTTP handler's backend, so state,
	// journaling and telemetry are identical over either transport.
	var wireListener net.Listener
	if *wireAddr != "" {
		l, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			logger.Error("marketd: wire listener", "addr", *wireAddr, "err", err)
			os.Exit(1)
		}
		wireListener = l
		// A closed gate keeps stats off the wire (it carries no credentials).
		ws := wire.NewServer(backend).WithTelemetry(tel).WithOperatorGate(apierr.NewGate(*useAuth, *opToken))
		if jm != nil {
			// A journaled leader with a wire listener is a replication
			// source: followers subscribe to the committed command stream
			// over the same port (kind=replicate frames). The feed must
			// attach before any traffic so it never misses a commit.
			feed, err := replica.NewFeed(jm, 0)
			if err != nil {
				logger.Error("marketd: building replication feed", "err", err)
				os.Exit(1)
			}
			feed.Instrument(tel)
			ws = ws.WithReplication(feed)
			logger.Info("marketd: replication enabled", "addr", *wireAddr)
		}
		go func() {
			logger.Info("marketd: wire protocol listening", "addr", *wireAddr)
			if err := ws.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("marketd: wire serve", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           srvHandler.Routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ConnState: httpapi.ConnCountHook(tel.Registry.Gauge("shield_http_connections",
			"Open HTTP connections.")),
	}
	// Graceful shutdown: stop accepting requests, drain in-flight ones,
	// then close the journal — Close syncs the log to disk, so a clean
	// SIGTERM never loses events even without -fsync.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("marketd: shutting down")
		if wireListener != nil {
			_ = wireListener.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("marketd: shutdown", "err", err)
		}
		close(done)
	}()

	logger.Info("marketd: listening", "addr", *addr,
		"epoch", *epoch, "candidates", *candidates, "min", *minPrice, "max", *maxPrice)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("marketd: serve", "err", err)
		os.Exit(1)
	}
	<-done
	if follower != nil {
		follower.Close()
	}
	if jm != nil {
		if err := jm.Close(); err != nil {
			logger.Error("marketd: closing journal", "dir", *journalDir, "err", err)
			os.Exit(1)
		}
		logger.Info("marketd: journal closed cleanly", "dir", *journalDir)
	}
}

// openJournal opens the daemon's store.
func openJournal(cfg market.Config, dir string, sc journal.StoreConfig, opts []journal.Option, logger *slog.Logger) (*journal.Market, error) {
	openStart := time.Now()
	jm, replayed, err := journal.OpenStore(cfg, dir, sc, opts...)
	if err != nil {
		return nil, err
	}
	if replayed > 0 {
		took := time.Since(openStart)
		logger.Info("marketd: replayed journal", "events", replayed, "dir", dir,
			"duration", took, "records_per_s", int(float64(replayed)/took.Seconds()))
	}
	inv := jm.Store().Inventory()
	logger.Info("marketd: journal open", "dir", dir,
		"segments", len(inv.Segments), "checkpoints", len(inv.Checkpoints),
		"last_seq", inv.LastSeq, "last_checkpoint", inv.LastCheckpoint)
	return jm, nil
}

// serveDebug runs the operator-only debug listener: net/http/pprof on
// an explicit mux (never the default mux), plus the process's metrics
// and trace ring. It is ungated — reachable only on debugAddr, which
// the operator should bind to localhost or a management network.
func serveDebug(addr string, tel *obs.Telemetry, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = tel.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"dropped": tel.Tracer.Dropped(),
			"traces":  tel.Tracer.Recent(64),
		})
	})
	logger.Info("marketd: debug listener", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("marketd: debug listener", "err", err)
	}
}
