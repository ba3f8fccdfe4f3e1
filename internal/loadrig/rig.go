package loadrig

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/node"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/replica"
)

// RigConfig sizes the in-process cluster a rig boots.
type RigConfig struct {
	// Datasets is the catalog size to seed (default 16).
	Datasets int
	// Buyers is the number of buyer accounts to register (default 64);
	// scenarios map workers onto these accounts.
	Buyers int
	// Seed derives the market's pricing randomness and the seeded
	// catalog (default 2022).
	Seed uint64
	// Fsync makes the journal fsync every flush, the durable production
	// configuration. Off by default: most rig runs measure the software
	// stack, not the disk.
	Fsync bool
	// TraceSample is the rig tracer's sampling interval: 1 traces every
	// request, N every Nth, 0 (the default) disables tracing so the
	// measured path stays unperturbed. Turn it on to exercise the
	// /metrics exemplar → /debug/traces lookup under load.
	TraceSample int
	// StoreConfig tunes the journal store the rig runs on — the marketd
	// -journal-dir configuration, in a temporary directory the rig owns
	// and removes on Close (zero values take the store's defaults).
	// CheckpointEvery is the compaction cadence: every N committed
	// records the store snapshots the market and deletes the segments
	// the checkpoint covers.
	StoreConfig journal.StoreConfig
	// Followers boots this many read replicas beside the leader, each a
	// follower node streaming from the leader's wire listener and serving
	// its own read-only HTTP listener (see Rig.FollowerAddrs). StartRig
	// waits for every follower to converge on the seeded state.
	Followers int
}

// Rig is marketd's server running entirely in-process: one leader
// node — a journaled, group-commit market behind an HTTP API listener
// and a wire-protocol listener on 127.0.0.1, with its replication feed —
// plus RigConfig.Followers follower nodes, each started by node.Start as
// marketd starts one. Tests and cmd/shieldload boot one, point thousands
// of clients at the addresses, and interrogate the same registry the
// /metrics endpoint serves. A rig DialRig returns holds a remote
// server's addresses and no nodes: Market, Tel and JournalDir are unset.
type Rig struct {
	// Market is the journaled market both leader listeners share.
	Market *journal.Market
	// Tel is the leader's telemetry; server histograms
	// (shield_http_request_seconds, shield_wire_request_seconds) live
	// in Tel.Registry.
	Tel *obs.Telemetry
	// HTTPAddr is the HTTP transport's dial target ("http://127.0.0.1:port").
	HTTPAddr string
	// WireAddr is the wire transport's dial target ("host:port").
	WireAddr string
	// Datasets is the seeded catalog.
	Datasets []market.DatasetID
	// Buyers is the registered buyer accounts.
	Buyers []market.BuyerID
	// JournalDir is the store directory backing Market.
	JournalDir string
	// Followers are the read replicas, in boot order; FollowerAddrs are
	// their read-only HTTP dial targets ("http://127.0.0.1:port").
	Followers     []*replica.Follower
	FollowerAddrs []string

	nodes  []*node.Node // the leader first
	tmpDir string       // JournalDir's parent, removed on Close
}

// Seller is the account owning every seeded dataset.
const Seller = market.SellerID("rig-seller")

func (rc *RigConfig) defaults() {
	if rc.Datasets <= 0 {
		rc.Datasets = 16
	}
	if rc.Buyers <= 0 {
		rc.Buyers = 64
	}
	if rc.Seed == 0 {
		rc.Seed = 2022
	}
}

// StartRig boots the in-process cluster: the leader node on ephemeral
// localhost ports over a store in a temporary directory, a seeded
// catalog of rc.Datasets datasets and rc.Buyers registered buyers, and
// rc.Followers follower nodes, each converged on the seeded state before
// StartRig returns so runs never measure the boot transient as replica
// read errors. Callers must Close the rig.
func StartRig(rc RigConfig) (*Rig, error) {
	rc.defaults()
	tmpDir, err := os.MkdirTemp("", "shieldload-")
	if err != nil {
		return nil, fmt.Errorf("loadrig: store dir: %w", err)
	}
	r := &Rig{tmpDir: tmpDir, JournalDir: filepath.Join(tmpDir, "store")}
	// The engine configuration is marketd's default: a linear candidate
	// grid spanning the personas' bid range, so lowball bids shield and
	// aggressive bids allocate. Tracing defaults off (RigConfig.TraceSample
	// 0): the rig measures, it does not sample.
	cfg := node.Config{
		Market: market.Config{
			Engine: core.Config{
				Candidates:    auction.LinearGrid(1, 200, 40),
				EpochSize:     8,
				BidsPerPeriod: 1,
				MinBid:        1,
			},
			Seed:   rc.Seed,
			Shards: market.DefaultShards,
		},
		JournalDir:  r.JournalDir,
		Store:       rc.StoreConfig,
		Fsync:       rc.Fsync,
		TraceSample: rc.TraceSample,
		Addr:        "127.0.0.1:0",
		WireAddr:    "127.0.0.1:0",
	}
	leader, err := node.Start(cfg)
	if err != nil {
		r.cleanupTmp()
		return nil, fmt.Errorf("loadrig: leader: %w", err)
	}
	r.nodes = append(r.nodes, leader)
	r.Market, r.Tel = leader.Market, leader.Tel
	r.HTTPAddr, r.WireAddr = "http://"+leader.HTTPAddr, leader.WireAddr
	if err := r.seed(rc); err != nil {
		_ = r.Close()
		return nil, err
	}

	cfg.JournalDir, cfg.WireAddr, cfg.Follow = "", "", "wire://"+r.WireAddr
	for i := 0; i < rc.Followers; i++ {
		f, err := node.Start(cfg)
		if err != nil {
			_ = r.Close()
			return nil, fmt.Errorf("loadrig: follower %d: %w", i, err)
		}
		r.nodes = append(r.nodes, f)
		r.Followers = append(r.Followers, f.Follower)
		r.FollowerAddrs = append(r.FollowerAddrs, "http://"+f.HTTPAddr)
	}
	if err := r.awaitFollowers(); err != nil {
		_ = r.Close()
		return nil, err
	}
	return r, nil
}

// DialRig seeds a running server, as StartRig seeds its leader, and
// returns a rig that holds its addresses and no nodes. httpAddr is
// "host:port" or "http://host:port", wireAddr "host:port" or
// "wire://host:port"; either may be empty, which leaves that transport
// undriven. Only rc.Datasets and rc.Buyers apply. Registrations the
// server already holds, from an earlier run, are kept.
func DialRig(httpAddr, wireAddr string, rc RigConfig) (*Rig, error) {
	rc.defaults()
	r := &Rig{HTTPAddr: httpAddr, WireAddr: strings.TrimPrefix(wireAddr, "wire://")}
	if httpAddr != "" && !strings.Contains(httpAddr, "://") {
		r.HTTPAddr = "http://" + httpAddr
	}
	if err := r.seed(rc); err != nil {
		return nil, err
	}
	return r, nil
}

// KillFollower drops follower i's replication connection mid-run; the
// follower redials with backoff and catches up from its applied seq.
func (r *Rig) KillFollower(i int) {
	if i >= 0 && i < len(r.Followers) {
		r.Followers[i].Kill()
	}
}

// seed registers the seller, the catalog and the buyer accounts through
// one client, in that order, so every run starts from the same state on
// an in-process leader and on a remote server alike. A registration the
// server already holds is not an error.
func (r *Rig) seed(rc RigConfig) error {
	target := r.WireAddr
	if target == "" {
		target = r.HTTPAddr
	}
	cl, err := client.Dial(target)
	if err != nil {
		return fmt.Errorf("loadrig: seeding: %w", err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := held(cl.RegisterSeller(ctx, Seller)); err != nil {
		return fmt.Errorf("loadrig: seeding seller: %w", err)
	}
	r.Datasets = make([]market.DatasetID, rc.Datasets)
	for i := range r.Datasets {
		id := market.DatasetID(fmt.Sprintf("ds-%03d", i))
		if err := held(cl.UploadDataset(ctx, Seller, id)); err != nil {
			return fmt.Errorf("loadrig: seeding dataset %s: %w", id, err)
		}
		r.Datasets[i] = id
	}
	r.Buyers = make([]market.BuyerID, rc.Buyers)
	for i := range r.Buyers {
		id := market.BuyerID(fmt.Sprintf("buyer-%04d", i))
		if _, err := cl.RegisterBuyer(ctx, id); held(err) != nil {
			return fmt.Errorf("loadrig: seeding buyer %s: %w", id, err)
		}
		r.Buyers[i] = id
	}
	return nil
}

// held drops the duplicate_id error a server answers a registration it
// already holds with, as on a second run against one server.
func held(err error) error {
	var ae *apierr.APIError
	if errors.As(err, &ae) && ae.Code == apierr.CodeDuplicateID {
		return nil
	}
	return err
}

// Close stops the followers, then the leader (its journal closes with
// a final sync), and removes the rig-owned journal directory.
func (r *Rig) Close() error {
	var errs []error
	for i := len(r.nodes) - 1; i >= 0; i-- {
		errs = append(errs, r.nodes[i].Close())
	}
	r.cleanupTmp()
	return errors.Join(errs...)
}

func (r *Rig) cleanupTmp() { _ = os.RemoveAll(r.tmpDir) }

// CheckInvariants verifies the whole-system invariants after a run,
// while the rig is still serving, each with the check its package owns:
//
//  1. The books balance (market.Market.CheckBooks) — revenue equals
//     total buyer spend, equals total seller balances, equals the sum of
//     sale prices.
//  2. Recovery rebuilds the live market (journal.CheckRecovery) — the
//     store's checkpoint + tail recovery, the path a restarted marketd
//     takes, reaches the live seq with byte-identical canonical state,
//     so everything the rig acknowledged is durably reconstructible.
//  3. Replica convergence, when the rig runs followers
//     (replica.Follower.AwaitConverged) — every follower applies the
//     leader's newest seq within a bounded wait and is byte-identical to
//     the leader.
//
// It returns a human-readable summary for the report, or an error
// naming the violated invariant. A remote rig holds no state to check,
// and its summary says so.
func (r *Rig) CheckInvariants() (string, error) {
	if r.Market == nil {
		return "not checked: the server runs in another process", nil
	}
	if err := r.Market.CheckBooks(); err != nil {
		return "", fmt.Errorf("loadrig: %w", err)
	}
	// The journal's group-commit writer acknowledges only written
	// records, so the state read back covers every operation the clients
	// saw succeed.
	if err := journal.CheckRecovery(r.JournalDir, r.Market); err != nil {
		return "", fmt.Errorf("loadrig: %w", err)
	}
	if err := r.awaitFollowers(); err != nil {
		return "", err
	}
	inv := r.Market.Store().Inventory()
	summary := fmt.Sprintf("money conserved (revenue=%v over %d transactions); checkpointed recovery rebuilds live state (%d segments, %d checkpoints, %d bytes on disk)",
		r.Market.Revenue(), r.Market.TxCount(), len(inv.Segments), len(inv.Checkpoints), inv.TotalBytes)
	if len(r.Followers) > 0 {
		summary += fmt.Sprintf("; %d replicas converged byte-identical to the leader", len(r.Followers))
	}
	return summary, nil
}

// awaitFollowers gives every follower ten seconds to converge on the
// leader.
func (r *Rig) awaitFollowers() error {
	for i, f := range r.Followers {
		if err := f.AwaitConverged(r.Market, 10*time.Second); err != nil {
			return fmt.Errorf("loadrig: follower %d %w", i, err)
		}
	}
	return nil
}
