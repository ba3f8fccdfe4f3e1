// Package torture is a deterministic model-based torture harness for
// the data market. A seeded workload generator produces a reproducible
// stream of market operations (bids, batches, ticks, dataset churn,
// price queries, ex-post settlements) driven by the buyer personas of
// internal/buyers and AR(1) valuation series from internal/timeseries.
// Every history is applied simultaneously to a single-goroutine
// reference model (reference.go) and to real journaled markets — called
// directly, instrumented with telemetry, and reached over the wire
// protocol; decisions, errors, canonical snapshots, journals, and ledger
// invariants must all agree at every step. The harness drives every
// replica from one goroutine; what concurrency does to the journaled
// market is RunHot's subject (hot.go). Any failure reports a one-line
// reproduction command: shieldstorm -seed N -ops M.
package torture

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/expost"
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
	// boundaries). RegridEvery must be zero: the reference model does
	// not mirror adaptive regridding.
	Engine core.Config
	// FollowerKills is how many times the replication follower twin is
	// killed mid-stream at seeded points: even-numbered events drop the
	// connection (tail catch-up from the follower's applied seq), odd
	// ones cold-restart the follower from nothing (snapshot catch-up).
	// Zero means the default of 2; negative disables chaos (the twin
	// still runs and is still gated at every checkpoint).
	FollowerKills int
	// StoreDir, when non-empty, adds a segmented-store twin: a replica
	// journaling into rotated segment files with snapshot checkpoints
	// and background compaction under this directory. The twin is
	// differentially gated like every other replica, its on-disk chain
	// is crash-cut and recovered at storeCrashCuts seeded points, its
	// recovered state must match its live state at the end of the run,
	// and with compaction disabled (Store.RetainSegments < 0) its
	// concatenated segment bodies must be byte-identical to the flat
	// replicas' journal tails.
	StoreDir string
	// Store tunes the store twin (zero values take journal defaults).
	// The harness shrinks nothing: pass small SegmentRecords /
	// CheckpointEvery to force rotation and checkpoint traffic.
	Store journal.StoreConfig
	// StoreDiskCeilingBytes fails the run if the store twin's on-disk
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

// storeCrashCuts is how many times the store twin's directory is copied,
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
	// Store twin accounting (zero when Config.StoreDir was empty):
	// segments and checkpoints on disk at the end of the run, the peak
	// on-disk footprint observed at any checkpoint, and how many
	// crash-cut recoveries ran.
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

// replica is one real journaled market under test. When conn is set,
// every op reaches the market through the binary wire protocol instead
// of direct method calls — the codec round trip must be invisible.
type replica struct {
	name  string
	jm    *journal.Market
	buf   *bytes.Buffer // flat journal bytes; nil for the store twin
	dir   string        // segmented-store directory; "" for flat replicas
	conn  *wire.Conn
	close func()
}

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

	// storeRep is the segmented-store twin (also in replicas); cutAt
	// holds the seeded op indexes of its crash-cut recovery drills.
	storeRep *replica
	cutAt    []int
	cutRNG   *rng.RNG

	// maxWait bounds any legal Time-Shield wait, derived from the
	// defaults-applied engine template.
	maxWait int

	// txSum tracks the running sum of reference transaction prices for
	// the per-op conservation check without rescanning the ledger.
	txSum   market.Money
	txCount int

	twinA, twinB      *expost.Arbiter
	lastExpostRevenue market.Money

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
		return nil, fmt.Errorf("torture: RegridEvery is not supported: the reference model does not mirror adaptive regridding")
	}

	// Mirror core's defaulting to size the wait bound.
	eng := cfg.Engine
	if eng.BidsPerPeriod == 0 {
		eng.BidsPerPeriod = 1
	}
	if eng.MaxWaitEpochs == 0 {
		eng.MaxWaitEpochs = 64
	}
	minBid := eng.MinBid
	if minBid <= 0 {
		minBid = 1
	}

	gen, err := newGenerator(cfg.Seed, minBid)
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

	// The instrumented twin runs with live telemetry: metrics and
	// tracing must never perturb market state.
	for _, instrument := range []bool{false, true} {
		r, err := newReplica(cfg, instrument)
		if err != nil {
			return nil, err
		}
		h.replicas = append(h.replicas, r)
	}
	// The wire twin reaches its journaled market only through the binary
	// wire protocol: every decision, error string, journal record and
	// snapshot must still match the in-process replicas byte for byte.
	wt, err := newWireReplica(cfg)
	if err != nil {
		return nil, err
	}
	h.replicas = append(h.replicas, wt)
	if cfg.StoreDir != "" {
		// The segmented-store twin journals into rotated segments with
		// checkpoints; its crash-cut drills run at seeded op indexes,
		// spread over the middle half like the follower kills.
		sr, err := newStoreReplica(cfg)
		if err != nil {
			return nil, err
		}
		h.storeRep = sr
		h.replicas = append(h.replicas, sr)
		if cfg.Ops >= 4 {
			h.cutRNG = rng.New(cfg.Seed).Fork("store-cuts")
			for k := 0; k < storeCrashCuts; k++ {
				h.cutAt = append(h.cutAt, cfg.Ops/4+h.cutRNG.Intn(cfg.Ops/2))
			}
			sort.Ints(h.cutAt)
		}
	}
	defer func() {
		for _, r := range h.replicas {
			if r.close != nil {
				r.close()
			}
		}
	}()
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

	// Two identically-seeded ex-post arbiters: the settle stream must be
	// bit-for-bit deterministic across instances.
	for _, a := range []**expost.Arbiter{&h.twinA, &h.twinB} {
		*a, err = expost.New(expost.Config{Engine: cfg.Engine, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("torture: ex-post arbiter: %w", err)
		}
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
	if h.storeRep != nil {
		inv := h.storeRep.jm.Store().Inventory()
		h.report.StoreSegments = len(inv.Segments)
		h.report.StoreCheckpoints = len(inv.Checkpoints)
	}
	return &h.report, nil
}

// ceilDiv mirrors core's wait-bound arithmetic for sizing maxWait.
func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func newReplica(cfg Config, instrument bool) (*replica, error) {
	name := "direct"
	if instrument {
		name = "telemetry"
	}
	buf := &bytes.Buffer{}
	jm, err := journal.NewMarket(market.Config{Engine: cfg.Engine, Seed: cfg.Seed}, buf)
	if err != nil {
		return nil, fmt.Errorf("torture: replica %s: %w", name, err)
	}
	if instrument {
		jm.Market.Instrument(obs.NewTelemetry())
	}
	if cfg.canaryPerturb != nil {
		// Mutation canary: only live replicas are perturbed, never the
		// reference — the differential must notice.
		jm.Market.TestPerturbPrices(cfg.canaryPerturb)
	}
	return &replica{name: name, jm: jm, buf: buf}, nil
}

// newWireReplica builds a journaled replica reached exclusively through
// the wire protocol: a wire client over an in-memory pipe to an
// uninstrumented wire server backed by the journaled market. The server
// mints no request IDs, so journaled events carry empty traces exactly
// like the direct-call replicas and the tails stay comparable.
func newWireReplica(cfg Config) (*replica, error) {
	r, err := newReplica(cfg, false)
	if err != nil {
		return nil, err
	}
	srvConn, cliConn := net.Pipe()
	go func() { _ = wire.NewServer(r.jm).ServeConn(srvConn) }()
	conn, err := wire.NewConn(cliConn)
	if err != nil {
		srvConn.Close()
		return nil, fmt.Errorf("torture: wire replica handshake: %w", err)
	}
	r.name, r.conn, r.close = "wire", conn, func() { _ = conn.Close() }
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

	if op.Kind == OpSettle {
		if reason := h.applySettle(op); reason != "" {
			return h.fail(i, op, "%s", reason)
		}
		h.gen.Observe(op, opResult{})
		if (i+1)%h.cfg.CheckEvery == 0 {
			return h.checkpoint(i)
		}
		return nil
	}

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

	// Mirror market membership into the ex-post twins so settles have
	// participants to act on.
	switch {
	case op.Kind == OpRegisterBuyer && refRes.err == nil:
		if e1, e2 := h.twinA.RegisterBuyer(string(op.Buyer)), h.twinB.RegisterBuyer(string(op.Buyer)); e1 != nil || e2 != nil {
			return h.fail(i, op, "ex-post twin registration: %v / %v", e1, e2)
		}
	case op.Kind == OpUpload && refRes.err == nil:
		if e1, e2 := h.twinA.AddDataset(string(op.Dataset)), h.twinB.AddDataset(string(op.Dataset)); e1 != nil || e2 != nil {
			return h.fail(i, op, "ex-post twin dataset: %v / %v", e1, e2)
		}
	case op.Kind == OpTick:
		h.twinA.Tick()
		h.twinB.Tick()
	}

	h.gen.Observe(op, refRes)

	if (i+1)%h.cfg.CheckEvery == 0 {
		return h.checkpoint(i)
	}
	return nil
}

// applySettle drives the ex-post arbiter twins and returns a non-empty
// reason on any divergence between them.
func (h *harness) applySettle(op Op) string {
	buyer, dataset := string(op.Buyer), string(op.Dataset)
	if op.Exante {
		ra, ea := h.twinA.Bid(buyer, dataset, op.Amount)
		rb, eb := h.twinB.Bid(buyer, dataset, op.Amount)
		if ra != rb || errString(ea) != errString(eb) {
			return fmt.Sprintf("ex-post twins diverge on bid: %+v (%v) vs %+v (%v)", ra, ea, rb, eb)
		}
	} else {
		ga, ea := h.twinA.Request(buyer, dataset)
		gb, eb := h.twinB.Request(buyer, dataset)
		if ga != gb || errString(ea) != errString(eb) {
			return fmt.Sprintf("ex-post twins diverge on request: %d (%v) vs %d (%v)", ga, ea, gb, eb)
		}
		if ea == nil {
			pa, e1 := h.twinA.Pay(ga, op.Amount)
			pb, e2 := h.twinB.Pay(gb, op.Amount)
			if pa != pb || errString(e1) != errString(e2) {
				return fmt.Sprintf("ex-post twins diverge on pay: %+v (%v) vs %+v (%v)", pa, e1, pb, e2)
			}
		}
	}
	revA, revB := h.twinA.Revenue(), h.twinB.Revenue()
	if revA != revB {
		return fmt.Sprintf("ex-post twin revenues diverge: %s vs %s", revA, revB)
	}
	if revA < h.lastExpostRevenue {
		return fmt.Sprintf("ex-post revenue decreased: %s -> %s", h.lastExpostRevenue, revA)
	}
	h.lastExpostRevenue = revA
	return ""
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
	if reason := h.checkConservationFull(); reason != "" {
		return h.fail(opIdx, op, "%s", reason)
	}
	if reason := h.checkTotals(); reason != "" {
		return h.fail(opIdx, op, "%s", reason)
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

// journalTail returns a journal's bytes past its first record, the
// config-bearing genesis head.
func journalTail(log []byte) ([]byte, error) {
	stop := errors.New("stop")
	head := -1
	_, _, err := journal.ScanRecords(bytes.NewReader(log), 1, func(rec journal.Record) error {
		head = rec.Size
		return stop
	})
	if err != stop {
		if err == nil {
			err = errors.New("no genesis record")
		}
		return nil, err
	}
	return log[head:], nil
}

// finalChecks verifies journal equivalence: the journal tails (everything
// after the config-bearing genesis record) must be byte-identical across
// replicas, and replaying any journal must rebuild the exact live
// state.
func (h *harness) finalChecks() *Failure {
	op := Op{Kind: OpTick}
	var tail []byte
	for i, r := range h.replicas {
		if r.buf == nil {
			// The store twin's durable chain is checked against the flat
			// tail (and recovered from disk) in storeFinalChecks below.
			continue
		}
		b := r.buf.Bytes()
		t, err := journalTail(b)
		if err != nil {
			return h.fail(h.cfg.Ops-1, op, "replica %s journal: %v", r.name, err)
		}
		if i == 0 {
			tail = t
		} else if !bytes.Equal(tail, t) {
			return h.fail(h.cfg.Ops-1, op, "journal tails diverge between %s and %s",
				h.replicas[0].name, r.name)
		}

		restored, err := journal.Restore(bytes.NewReader(b))
		if err != nil {
			return h.fail(h.cfg.Ops-1, op, "replica %s journal replay: %v", r.name, err)
		}
		if !bytes.Equal(r.jm.Canonical(), restored.Canonical()) {
			return h.fail(h.cfg.Ops-1, op, "replica %s: journal replay does not rebuild live state: %s",
				r.name, r.jm.Snapshot().Diff(restored.Snapshot()))
		}
	}
	if h.storeRep != nil {
		if f := h.storeFinalChecks(tail); f != nil {
			return f
		}
	}
	return nil
}
