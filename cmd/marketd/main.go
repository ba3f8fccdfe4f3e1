// Command marketd serves a protected data market over a JSON HTTP API:
// sellers upload datasets, the arbiter prices them with the shielded
// multiplicative-weights algorithm, buyers bid and receive immediate
// allocation decisions or Time-Shield waits. It parses its flags into a
// node.Config, starts the node (internal/node, which documents every
// field) and stops it gracefully on SIGINT or SIGTERM.
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
// With -journal-dir every acknowledged operation is journaled in a
// segmented store in that directory (snapshot checkpoints every
// -checkpoint-every records, checkpoint-covered segments deleted in the
// background) and a restart replays only the records past the newest
// checkpoint; -fsync also syncs every group commit, so a power failure
// loses nothing. A store an older release wrote is refused, naming the
// command that rewrites it once: `marketctl journal-migrate PATH`.
//
// -wire-addr starts the binary wire protocol (internal/wire) beside the
// JSON API; it carries no bid signatures, so it refuses to start under
// -auth. A journaled daemon with -wire-addr is a replication leader:
//
//	marketd -follow wire://leader:9090 -addr :8081
//
// starts a read replica that answers writes with 403 read_only_replica,
// reports its staleness on /readyz and as shield_replica_* gauges, and
// turns unready past -max-lag. With -auth, buyer registration returns an
// HMAC credential every bid must be signed with, and the operator
// endpoints (/metrics, /debug/traces, dataset stats) require the bearer
// token from -operator-token, minted and logged when empty. -debug-addr
// serves net/http/pprof, metrics and traces ungated: bind it to
// localhost. See internal/httpapi for the endpoint list.
package main

import (
	"flag"
	"log/slog"
	_ "net/http/pprof" // the -debug-addr profiles (see node's debug listener)
	"os"
	"os/signal"
	"syscall"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/node"
	"github.com/datamarket/shield/internal/replica"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	cfg, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a bad flag
	cfg.Logger = logger
	n, err := node.Start(cfg)
	if err != nil {
		logger.Error("marketd: not started", "err", err)
		os.Exit(1)
	}
	// Graceful shutdown: stop accepting requests, drain in-flight ones,
	// then close the journal, which syncs the log to disk, so a clean
	// SIGTERM never loses events even without -fsync.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("marketd: shutting down")
	if err := n.Close(); err != nil {
		logger.Error("marketd: shutdown", "err", err)
		os.Exit(1)
	}
}

// parseFlags reads marketd's command line, args, on fs into the
// configuration of the node it starts.
func parseFlags(fs *flag.FlagSet, args []string) (node.Config, error) {
	var cfg node.Config
	epoch := fs.Int("epoch", 8, "Epoch-Shield size E (bids per price update)")
	candidates := fs.Int("candidates", 40, "number of posting-price candidates")
	minPrice := fs.Float64("min", 1, "lowest candidate price (also the bid floor)")
	maxPrice := fs.Float64("max", 200, "highest candidate price")
	bpp := fs.Int("bpp", 1, "expected bids per market period (Time-Shield conversion)")
	fs.Uint64Var(&cfg.Market.Seed, "seed", 2022, "pricing randomness seed")
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.JournalDir, "journal-dir", "", "journal directory: rotated segment files plus snapshot checkpoints, recovery replays only the tail past the newest checkpoint")
	fs.Int64Var(&cfg.Store.CheckpointEvery, "checkpoint-every", 0, "write a snapshot checkpoint every N committed records (0 = default 10000, negative disables)")
	fs.IntVar(&cfg.Store.RetainSegments, "retain-segments", 0, "checkpoint-covered sealed segments to keep beyond what recovery needs (negative keeps all)")
	fs.Int64Var(&cfg.Store.SegmentBytes, "segment-bytes", 0, "rotate the active segment at this size (0 = default 8 MiB)")
	fs.BoolVar(&cfg.Fsync, "fsync", false, "fsync the journal after every record (durable across power loss, slower appends)")
	fs.BoolVar(&cfg.Auth, "auth", false, "require HMAC-signed bids")
	fs.StringVar(&cfg.OperatorToken, "operator-token", "", "bearer token for operator endpoints (auto-generated with -auth when empty)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", 1, "record 1 in N bid-lifecycle traces (0 disables tracing)")
	fs.DurationVar(&cfg.SlowOp, "slow-op", 0, "log a structured stage breakdown for sampled requests slower than this (0 disables)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", "", "operator-only debug listener with pprof, metrics and traces (off when empty; bind to localhost)")
	fs.StringVar(&cfg.WireAddr, "wire-addr", "", "binary wire-protocol listener (off when empty; incompatible with -auth)")
	fs.DurationVar(&cfg.GroupCommitWindow, "group-commit-window", 0, "how long a journal group leader waits for followers (0 batches only what is already queued)")
	fs.StringVar(&cfg.Follow, "follow", "", "run as a read replica of the leader at wire://host:port (read-only HTTP; incompatible with -wire-addr and -auth)")
	fs.DurationVar(&cfg.MaxLag, "max-lag", replica.DefaultMaxLag, "with -follow: /readyz turns 503 when the replica has not proven currency for this long")
	err := fs.Parse(args)
	cfg.Market.Engine = core.Config{
		Candidates:    auction.LinearGrid(*minPrice, *maxPrice, *candidates),
		EpochSize:     *epoch,
		BidsPerPeriod: *bpp,
		MinBid:        *minPrice,
	}
	// Recorded, selects nothing; kept so a fresh log's genesis is
	// byte-identical to one written before -shards was removed.
	cfg.Market.Shards = market.DefaultShards
	return cfg, err
}
