// Package torture is a deterministic model-based torture harness for
// the data market. A seeded workload generator produces a reproducible
// stream of market operations (bids, batches, ticks, dataset churn,
// price queries) driven by the buyer personas of internal/buyers and
// AR(1) valuation series from internal/timeseries.
// Every history is applied simultaneously to a single-goroutine
// reference model (reference.go) and to real store-backed journaled
// markets — called directly, instrumented with telemetry, and reached
// over the wire protocol; decisions, errors, canonical snapshots, record
// streams, recovery and ledger invariants must all agree. The harness
// drives every replica from one goroutine; what concurrency does to the
// journaled market is RunHot's subject (hot.go). Any failure reports a one-line
// reproduction command: shieldstorm -seed N -ops M.
package torture

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/wire"
)

// Config configures one torture run.
type Config struct {
	// Seed drives every random choice in the run; the same Seed and Ops
	// reproduce the identical history, byte for byte.
	Seed uint64
	// Ops is the number of operations to generate (default 10_000).
	Ops int
	// CheckEvery is the interval, in ops, between full-state checkpoints
	// (default Ops/16, at least 512). Cheap per-op invariants run on
	// every op regardless.
	CheckEvery int
	// Engine is the pricing-engine template (default: a 12-candidate
	// linear grid with small epochs, tuned so a run exercises many epoch
	// boundaries). RegridEvery must be zero: checkBidInvariants and
	// checkWaitMonotone read the template's fixed candidate grid, which
	// adaptive regridding replaces.
	Engine core.Config
	// FollowerKills is how many times the replication follower twin is
	// killed mid-stream at seeded points: even-numbered events drop the
	// connection (tail catch-up from the follower's applied seq), odd
	// ones cold-restart the follower from nothing (snapshot catch-up).
	// Zero means the default of 2; negative disables chaos (the twin
	// still runs and is still gated at every checkpoint).
	FollowerKills int
	// StoreDir holds the twins' store directories, one per twin. Empty
	// means a temporary directory, removed when Run returns.
	StoreDir string
	// Store tunes the direct twin's store (zero values take journal
	// defaults): its segments rotate, checkpoint and compact as
	// configured, and its chain is crash-cut and recovered at
	// storeCrashCuts seeded points. The harness shrinks nothing: pass
	// small SegmentRecords / CheckpointEvery to force rotation and
	// checkpoint traffic. The other twins keep their whole history
	// (fullHistory).
	Store journal.StoreConfig
	// StoreDiskCeilingBytes fails the run if the direct twin's on-disk
	// footprint (segments + checkpoints + temp files) ever exceeds this
	// at a checkpoint — the bound compaction is supposed to hold. Zero
	// disables the gate.
	StoreDiskCeilingBytes int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// canaryPerturb, when non-nil, is installed as a price perturbation
	// on the LIVE replicas only — never the reference. It exists for the
	// mutation-canary test, which seeds a deliberate mispricing and
	// asserts the differential catches it.
	canaryPerturb func(price float64) float64

	// canaryFollowerDrop makes the follower twin acknowledge one
	// replicated seq without applying it; the checkpoint snapshot diff
	// must catch the divergence. canaryFollowerStall freezes the twin's
	// apply loop; the checkpoint lag gate must trip. Both are in-package
	// test hooks, like canaryPerturb.
	canaryFollowerDrop  int64
	canaryFollowerStall bool
	// followerConverge bounds the checkpoint wait for the follower twin
	// to reach the leader's seq (default 10s; the canary tests shrink it
	// so a deliberately stalled twin fails fast).
	followerConverge time.Duration
}

// storeCrashCuts is how many times the direct twin's directory is copied,
// torn at a seeded offset in its active segment, and recovered mid-run.
// Each event also recovers an uncut copy, which must rebuild the live
// state exactly.
const storeCrashCuts = 2

// DefaultEngine is the engine template used when Config.Engine is zero.
func DefaultEngine() core.Config {
	return core.Config{
		Candidates:    auction.LinearGrid(10, 200, 12),
		EpochSize:     8,
		Rule:          core.DrawMW,
		Wait:          core.WaitBound,
		MinBid:        5,
		BidsPerPeriod: 4,
		MaxWaitEpochs: 12,
	}
}

func (c *Config) applyDefaults() {
	if c.Ops == 0 {
		c.Ops = 10_000
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = c.Ops / 16
		if c.CheckEvery < 512 {
			c.CheckEvery = 512
		}
	}
	if len(c.Engine.Candidates) == 0 {
		c.Engine = DefaultEngine()
	}
	if c.FollowerKills == 0 {
		c.FollowerKills = 2
	}
	if c.FollowerKills < 0 {
		c.FollowerKills = 0
	}
	if c.followerConverge == 0 {
		c.followerConverge = 10 * time.Second
	}
}

// Report summarizes a passing run.
type Report struct {
	Seed        uint64
	Ops         int
	OpCounts    map[string]int
	Rejections  int
	Allocations int
	Revenue     market.Money
	Checkpoints int
	// FollowerKills counts the chaos events injected into the
	// replication follower twin (connection drops + cold restarts).
	FollowerKills int
	// The direct twin's store: segments and checkpoints on disk at the
	// end of the run, the peak on-disk footprint observed at any
	// checkpoint, and how many crash-cut recoveries ran.
	StoreSegments    int
	StoreCheckpoints int
	StoreDiskPeak    int64
	StoreCrashCuts   int
}

// Failure is a torture-harness failure. Error() includes a one-line
// reproduction command.
type Failure struct {
	Seed    uint64
	Ops     int
	Mode    string // "hot" or "bitrot" for a RunHot or RunBitrot failure: the repro line carries the flag
	OpIndex int
	OpDesc  string
	Reason  string
}

// Error implements error.
func (f *Failure) Error() string {
	mode := ""
	if f.Mode != "" {
		mode = " -" + f.Mode
	}
	return fmt.Sprintf("torture failure at op %d (%s): %s\nrepro: shieldstorm%s -seed %d -ops %d",
		f.OpIndex, f.OpDesc, f.Reason, mode, f.Seed, f.Ops)
}

// opResult is the outcome of one op against one implementation.
type opResult struct {
	err   error
	dec   market.Decision
	tick  int
	batch []market.BidResult
	stats market.DatasetStats
}

// replica is one real store-backed journaled market under test. When
// conn is set, every op reaches the market through the binary wire
// protocol instead of direct method calls — the codec round trip must
// be invisible. full marks a store that keeps every record, whose
// stream the end checks compare.
type replica struct {
	name  string
	jm    *journal.Market
	full  bool
	conn  *wire.Conn
	close func()
}

// fullHistory is the store of every twin but the direct one: no
// checkpoint and no compaction, so its segments hold the whole record
// stream and its recovery replays from genesis.
var fullHistory = journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1}

func (r *replica) apply(op Op) opResult {
	if r.conn != nil {
		return r.applyWire(op)
	}
	switch op.Kind {
	case OpRegisterBuyer:
		return opResult{err: r.jm.RegisterBuyer(op.Buyer)}
	case OpRegisterSeller:
		return opResult{err: r.jm.RegisterSeller(op.Seller)}
	case OpUpload:
		return opResult{err: r.jm.UploadDataset(op.Seller, op.Dataset)}
	case OpCompose:
		return opResult{err: r.jm.ComposeDataset(op.Dataset, op.Constituents...)}
	case OpWithdraw:
		return opResult{err: r.jm.WithdrawDataset(op.Seller, op.Dataset)}
	case OpTick:
		n, err := r.jm.Tick()
		return opResult{tick: n, err: err}
	case OpBid:
		d, err := r.jm.SubmitBid(op.Buyer, op.Dataset, op.Amount)
		return opResult{dec: d, err: err}
	case OpBatch:
		return opResult{batch: r.jm.SubmitBids(bidRequests(op))}
	case OpQuery:
		s, err := r.jm.Stats(op.Dataset)
		return opResult{stats: s, err: err}
	default:
		return opResult{}
	}
}

// applyWire drives one op through the replica's wire connection. The
// wire transport reports failures as *apierr.APIError whose Error() is
// the server-side message verbatim, so errString comparison against the
// reference still holds exactly.
func (r *replica) applyWire(op Op) opResult {
	ctx := context.Background()
	switch op.Kind {
	case OpRegisterBuyer:
		_, err := r.conn.RegisterBuyer(ctx, op.Buyer)
		return opResult{err: err}
	case OpRegisterSeller:
		return opResult{err: r.conn.RegisterSeller(ctx, op.Seller)}
	case OpUpload:
		return opResult{err: r.conn.UploadDataset(ctx, op.Seller, op.Dataset)}
	case OpCompose:
		return opResult{err: r.conn.ComposeDataset(ctx, op.Dataset, op.Constituents...)}
	case OpWithdraw:
		return opResult{err: r.conn.WithdrawDataset(ctx, op.Seller, op.Dataset)}
	case OpTick:
		n, err := r.conn.Tick(ctx)
		return opResult{tick: n, err: err}
	case OpBid:
		d, err := r.conn.SubmitBid(ctx, op.Buyer, op.Dataset, op.Amount)
		return opResult{dec: d, err: err}
	case OpBatch:
		batch, err := r.conn.SubmitBids(ctx, bidRequests(op))
		return opResult{batch: batch, err: err}
	case OpQuery:
		s, err := r.conn.Stats(ctx, op.Dataset)
		return opResult{stats: s, err: err}
	default:
		return opResult{}
	}
}

func bidRequests(op Op) []market.BidRequest {
	reqs := make([]market.BidRequest, len(op.Bids))
	for i, b := range op.Bids {
		reqs[i] = market.BidRequest{Buyer: b.Buyer, Dataset: b.Dataset, Amount: b.Amount}
	}
	return reqs
}

// harness holds the full differential state for one run.
type harness struct {
	cfg      Config
	gen      *generator
	ref      *command.State
	replicas []*replica

	// twin is the replication follower streaming replicas[0]'s command
	// log; killAt holds the seeded op indexes where chaos strikes it.
	twin   *followerTwin
	killAt []int

	// cutAt holds the seeded op indexes of the direct twin's crash-cut
	// recovery drills.
	cutAt  []int
	cutRNG *rng.RNG

	// maxWait bounds any legal Time-Shield wait, derived from the
	// defaults-applied engine template.
	maxWait int

	// txSum tracks the running sum of reference transaction prices for
	// the per-op conservation check without rescanning the ledger.
	txSum   market.Money
	txCount int

	report Report
}

// Run executes one torture run and returns its report, or a *Failure
// describing the first divergence or invariant violation.
func Run(cfg Config) (*Report, error) {
	cfg.applyDefaults()
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("torture: engine config: %w", err)
	}
	if cfg.Engine.RegridEvery > 0 {
		return nil, fmt.Errorf("torture: RegridEvery is not supported: the bid and wait invariants read the template's fixed candidate grid")
	}
	if cfg.StoreDir == "" {
		dir, err := os.MkdirTemp("", "torture-*")
		if err != nil {
			return nil, fmt.Errorf("torture: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.StoreDir = dir
	}

	// Mirror core's defaulting to size the wait bound.
	eng := cfg.Engine
	if eng.BidsPerPeriod == 0 {
		eng.BidsPerPeriod = 1
	}
	if eng.MaxWaitEpochs == 0 {
		eng.MaxWaitEpochs = 64
	}

	gen, err := newGenerator(cfg.Seed, cfg.Engine.MinBid)
	if err != nil {
		return nil, err
	}

	h := &harness{
		cfg:     cfg,
		gen:     gen,
		ref:     command.MustNewState(market.Config{Engine: cfg.Engine, Seed: cfg.Seed}),
		maxWait: ceilDiv(eng.EpochSize*(1+eng.MaxWaitEpochs), eng.BidsPerPeriod),
		report:  Report{Seed: cfg.Seed, Ops: cfg.Ops, OpCounts: make(map[string]int)},
	}

	defer func() {
		for _, r := range h.replicas {
			r.close()
		}
	}()
	// The direct twin's store rotates, checkpoints and compacts as
	// cfg.Store says; its crash-cut drills run at seeded op indexes,
	// spread over the middle half like the follower kills. The
	// instrumented twin runs with live telemetry: metrics and tracing
	// must never perturb market state. The wire twin reaches its market
	// only through the binary wire protocol: every decision, error
	// string, record and snapshot must still match the in-process twins
	// byte for byte.
	for _, name := range []string{"direct", "telemetry", "wire"} {
		r, err := newReplica(cfg, name)
		if err != nil {
			return nil, err
		}
		h.replicas = append(h.replicas, r)
	}
	if cfg.Ops >= 4 {
		h.cutRNG = rng.New(cfg.Seed).Fork("store-cuts")
		for k := 0; k < storeCrashCuts; k++ {
			h.cutAt = append(h.cutAt, cfg.Ops/4+h.cutRNG.Intn(cfg.Ops/2))
		}
		sort.Ints(h.cutAt)
	}
	// The replication follower twin streams replicas[0]'s committed
	// command log over the real wire protocol; the feed attaches before
	// the first op so no commit slips past it. Kill points are seeded,
	// spread over the middle half of the run, and consumed in the op
	// loop — reports stay deterministic per (seed, ops).
	h.twin, err = newFollowerTwin(cfg, h.replicas[0].jm, 0)
	if err != nil {
		return nil, fmt.Errorf("torture: follower twin: %w", err)
	}
	defer h.twin.close()
	if cfg.FollowerKills > 0 && cfg.Ops >= 4 {
		chaos := rng.New(cfg.Seed).Fork("follower-chaos")
		for k := 0; k < cfg.FollowerKills; k++ {
			h.killAt = append(h.killAt, cfg.Ops/4+chaos.Intn(cfg.Ops/2))
		}
		sort.Ints(h.killAt)
	}

	for i := 0; i < cfg.Ops; i++ {
		for len(h.killAt) > 0 && h.killAt[0] <= i {
			h.killAt = h.killAt[1:]
			if err := h.twin.chaos(cfg.Logf); err != nil {
				return nil, fmt.Errorf("torture: follower chaos: %w", err)
			}
			h.report.FollowerKills++
		}
		for len(h.cutAt) > 0 && h.cutAt[0] <= i {
			h.cutAt = h.cutAt[1:]
			if f := h.storeCrashCut(i); f != nil {
				return nil, f
			}
			h.report.StoreCrashCuts++
		}
		op := gen.Next()
		if f := h.step(i, op); f != nil {
			return nil, f
		}
		if cfg.Logf != nil && (i+1)%cfg.CheckEvery == 0 {
			rev, _, _ := h.ref.Totals()
			cfg.Logf("op %d/%d: clock=%d datasets=%d revenue=%s",
				i+1, cfg.Ops, h.gen.clock, h.ref.NumDatasets(), rev)
		}
	}
	if f := h.checkpoint(cfg.Ops - 1); f != nil {
		return nil, f
	}
	if f := h.finalChecks(); f != nil {
		return nil, f
	}

	rev, _, _ := h.ref.Totals()
	h.report.Revenue = rev
	h.report.Allocations = h.ref.TxCount()
	inv := h.replicas[0].jm.Store().Inventory()
	h.report.StoreSegments = len(inv.Segments)
	h.report.StoreCheckpoints = len(inv.Checkpoints)
	return &h.report, nil
}

// ceilDiv mirrors core's wait-bound arithmetic for sizing maxWait.
func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// newReplica opens the twin called name under cfg.StoreDir: "direct"
// on cfg.Store, "telemetry" (instrumented) and "wire" on fullHistory.
// The wire twin is reached only through a wire client over an in-memory
// pipe to an uninstrumented wire server. The server mints no request
// IDs, so its records carry empty traces exactly like the direct-call
// twins' and the streams stay comparable.
func newReplica(cfg Config, name string) (*replica, error) {
	sc := fullHistory
	if name == "direct" {
		sc = cfg.Store
	}
	jm, _, err := journal.OpenStore(market.Config{Engine: cfg.Engine, Seed: cfg.Seed},
		filepath.Join(cfg.StoreDir, name), sc)
	if err != nil {
		return nil, fmt.Errorf("torture: replica %s: %w", name, err)
	}
	if name == "telemetry" {
		jm.Market.Instrument(obs.NewTelemetry())
	}
	if cfg.canaryPerturb != nil {
		// Mutation canary: only live replicas are perturbed, never the
		// reference — the differential must notice.
		jm.Market.TestPerturbPrices(cfg.canaryPerturb)
	}
	r := &replica{name: name, jm: jm, full: sc.RetainSegments < 0, close: func() { _ = jm.Close() }}
	if name != "wire" {
		return r, nil
	}
	srvConn, cliConn := net.Pipe()
	go func() { _ = wire.NewServer(jm).ServeConn(srvConn) }()
	conn, err := wire.NewConn(cliConn)
	if err != nil {
		srvConn.Close()
		r.close()
		return nil, fmt.Errorf("torture: wire replica handshake: %w", err)
	}
	r.conn, r.close = conn, func() { _ = conn.Close(); _ = jm.Close() }
	return r, nil
}

func (h *harness) fail(opIdx int, op Op, format string, args ...any) *Failure {
	return &Failure{
		Seed:    h.cfg.Seed,
		Ops:     h.cfg.Ops,
		OpIndex: opIdx,
		OpDesc:  op.String(),
		Reason:  fmt.Sprintf(format, args...),
	}
}

// step applies one op everywhere and runs the per-op invariants.
func (h *harness) step(i int, op Op) *Failure {
	h.report.OpCounts[op.Kind.String()]++

	refRes := applyRef(h.ref, op)
	if refRes.err != nil {
		h.report.Rejections++
	}
	if op.chaos && refRes.err == nil && op.Kind != OpBatch {
		// Chaos ops are constructed to be rejected; acceptance means the
		// generator's state mirror (and likely the reference) is wrong.
		return h.fail(i, op, "chaos op unexpectedly accepted by reference")
	}
	for _, r := range h.replicas {
		res := r.apply(op)
		if reason := diffResults(op, refRes, res); reason != "" {
			return h.fail(i, op, "replica %s disagrees with reference: %s", r.name, reason)
		}
	}
	if reason := h.checkBidInvariants(op, refRes); reason != "" {
		return h.fail(i, op, "%s", reason)
	}
	if reason := h.checkConservation(); reason != "" {
		return h.fail(i, op, "%s", reason)
	}

	h.gen.Observe(op, refRes)

	if (i+1)%h.cfg.CheckEvery == 0 {
		return h.checkpoint(i)
	}
	return nil
}

// checkpoint runs the expensive whole-state invariants.
func (h *harness) checkpoint(opIdx int) *Failure {
	h.report.Checkpoints++
	op := Op{Kind: OpTick} // placeholder desc for state-level failures
	var want bytes.Buffer
	_ = h.ref.Cut().WriteCanonical(&want) // a bytes.Buffer never fails a write
	for _, r := range h.replicas {
		if !bytes.Equal(r.jm.Canonical(), want.Bytes()) {
			return h.fail(opIdx, op, "replica %s snapshot diverges from reference in sections %v",
				r.name, h.ref.Snapshot().Diff(r.jm.Snapshot()))
		}
	}
	if reason := h.checkTotals(); reason != "" {
		return h.fail(opIdx, op, "%s", reason)
	}
	for _, r := range h.replicas {
		if err := r.jm.CheckBooks(); err != nil {
			return h.fail(opIdx, op, "replica %s: %v", r.name, err)
		}
	}
	if reason := h.checkWaitMonotone(); reason != "" {
		return h.fail(opIdx, op, "%s", reason)
	}
	if f := h.checkFollower(opIdx); f != nil {
		return f
	}
	if f := h.checkStoreDisk(opIdx); f != nil {
		return f
	}
	return nil
}

// finalChecks verifies every twin's store at the end of a run:
// recovery from its directory rebuilds its live state, and each twin
// that keeps its whole history wrote the same record stream — seq,
// trace, head flag and payload, genesis included — as the first such.
func (h *harness) finalChecks() *Failure {
	last, op := h.cfg.Ops-1, Op{Kind: OpTick}
	var want []journal.Record
	var wantName string
	for _, r := range h.replicas {
		if err := journal.CheckRecovery(r.jm.Store().Dir(), r.jm); err != nil {
			return h.fail(last, op, "replica %s: %v", r.name, err)
		}
		if !r.full {
			continue
		}
		got, err := records(r.jm)
		if err != nil {
			return h.fail(last, op, "replica %s records: %v", r.name, err)
		}
		if want == nil {
			want, wantName = got, r.name
			continue
		}
		for i := 0; i < min(len(want), len(got)); i++ {
			w, g := want[i], got[i]
			if w.Seq != g.Seq || w.Trace != g.Trace || w.Head != g.Head || !bytes.Equal(w.Payload, g.Payload) {
				return h.fail(last, op, "record streams of %s and %s diverge at record %d (seq %d)",
					wantName, r.name, i+1, w.Seq)
			}
		}
		if len(want) != len(got) {
			return h.fail(last, op, "record streams diverge: %s wrote %d records, %s %d",
				wantName, len(want), r.name, len(got))
		}
	}
	return nil
}

// records reads a store's whole record stream, payloads copied.
func records(jm *journal.Market) ([]journal.Record, error) {
	var recs []journal.Record
	err := jm.Store().TailRecords(0, jm.LastSeq(), func(rec journal.Record) error {
		rec.Payload = bytes.Clone(rec.Payload)
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}
