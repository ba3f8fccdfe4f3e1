package loadrig

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/datamarket/shield/internal/auction"
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
// /metrics endpoint serves.
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

// StartRig boots the in-process cluster: the leader node on ephemeral
// localhost ports over a store in a temporary directory, a seeded
// catalog of rc.Datasets datasets and rc.Buyers registered buyers, and
// rc.Followers follower nodes, each converged on the seeded state before
// StartRig returns so runs never measure the boot transient as replica
// read errors. Callers must Close the rig.
func StartRig(rc RigConfig) (*Rig, error) {
	if rc.Datasets <= 0 {
		rc.Datasets = 16
	}
	if rc.Buyers <= 0 {
		rc.Buyers = 64
	}
	if rc.Seed == 0 {
		rc.Seed = 2022
	}

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
	if err := r.checkReplicaConvergence(); err != nil {
		_ = r.Close()
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

// seed registers the seller, catalog and buyer accounts directly on the
// journaled market, so every run starts from the same journaled state.
func (r *Rig) seed(rc RigConfig) error {
	if err := r.Market.RegisterSeller(Seller); err != nil {
		return fmt.Errorf("loadrig: seeding seller: %w", err)
	}
	r.Datasets = make([]market.DatasetID, rc.Datasets)
	for i := range r.Datasets {
		id := market.DatasetID(fmt.Sprintf("ds-%03d", i))
		if err := r.Market.UploadDataset(Seller, id); err != nil {
			return fmt.Errorf("loadrig: seeding dataset %s: %w", id, err)
		}
		r.Datasets[i] = id
	}
	r.Buyers = make([]market.BuyerID, rc.Buyers)
	for i := range r.Buyers {
		id := market.BuyerID(fmt.Sprintf("buyer-%04d", i))
		if err := r.Market.RegisterBuyer(id); err != nil {
			return fmt.Errorf("loadrig: seeding buyer %s: %w", id, err)
		}
		r.Buyers[i] = id
	}
	return nil
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
// while the rig is still serving:
//
//  1. Money conservation — market revenue equals total buyer spend,
//     equals total seller balances, equals the sum of transaction-log
//     prices. A lost or double-counted sale under concurrent load
//     breaks at least one equality.
//  2. Journal replay — restoring the on-disk journal rebuilds a market
//     whose canonical snapshot is byte-identical to the live one, so
//     everything the rig acknowledged is durably reconstructible.
//  3. Replica convergence (when the rig runs followers) — every
//     follower catches up to the leader's newest committed seq within a
//     bounded wait and its canonical snapshot is byte-identical to the
//     leader's. A follower that skipped, duplicated, or misapplied one
//     replicated command fails the byte comparison.
//
// It returns a human-readable summary for the report, or an error
// naming the violated invariant.
func (r *Rig) CheckInvariants() (string, error) {
	revenue, spent, balances := r.Market.Totals()
	var txSum market.Money
	txs := r.Market.Transactions()
	for _, tx := range txs {
		txSum += tx.Price
	}
	if revenue != spent || revenue != balances || revenue != txSum {
		return "", fmt.Errorf("loadrig: money not conserved: revenue=%v spent=%v balances=%v txsum=%v",
			revenue, spent, balances, txSum)
	}

	// The journal's group-commit writer acknowledges only written
	// records, so the state read back here covers every operation the
	// clients saw succeed. The replay is checkpoint + tail-segment
	// recovery — the same bounded-tail path a restarted marketd takes.
	restored, rseq, _, err := journal.RecoverDir(r.JournalDir)
	if err != nil {
		return "", fmt.Errorf("loadrig: store recovery: %w", err)
	}
	if want := r.Market.LastSeq(); rseq != want {
		return "", fmt.Errorf("loadrig: store recovery reached seq %d, live at %d", rseq, want)
	}
	if !bytes.Equal(r.Market.Canonical(), restored.Canonical()) {
		return "", fmt.Errorf("loadrig: store recovery does not rebuild live state: %s",
			r.Market.Snapshot().Diff(restored.Snapshot()))
	}
	inv := r.Market.Store().Inventory()
	replaySummary := fmt.Sprintf("checkpointed recovery rebuilds live state (%d segments, %d checkpoints, %d bytes on disk)",
		len(inv.Segments), len(inv.Checkpoints), inv.TotalBytes)

	summary := fmt.Sprintf("money conserved (revenue=%v over %d transactions); %s",
		revenue, len(txs), replaySummary)
	if len(r.Followers) > 0 {
		if err := r.checkReplicaConvergence(); err != nil {
			return "", err
		}
		summary += fmt.Sprintf("; %d replicas converged byte-identical to the leader", len(r.Followers))
	}
	return summary, nil
}

// checkReplicaConvergence waits (bounded) for every follower to apply
// the leader's newest seq, then pins each follower snapshot
// byte-identical to the leader's canonical snapshot.
func (r *Rig) checkReplicaConvergence() error {
	want := r.Market.LastSeq()
	deadline := time.Now().Add(10 * time.Second)
	for i, f := range r.Followers {
		for f.Applied() < want {
			if time.Now().After(deadline) {
				applied, leader, lag, connected := f.Staleness()
				return fmt.Errorf("loadrig: follower %d never converged: applied %d, leader %d (journal %d), lag %.2fs, connected %v",
					i, applied, leader, want, lag, connected)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	leader := r.Market.Canonical()
	for i, f := range r.Followers {
		fm := f.Market()
		if fm == nil {
			return fmt.Errorf("loadrig: follower %d has no state", i)
		}
		if !bytes.Equal(fm.Canonical(), leader) {
			return fmt.Errorf("loadrig: follower %d snapshot diverges from leader: %s",
				i, fm.Snapshot().Diff(r.Market.Snapshot()))
		}
	}
	return nil
}
