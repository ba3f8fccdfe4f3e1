// The hot-dataset storm: what the sequential differential in harness.go
// cannot test. Run drives every replica from one goroutine, so it never
// puts two commands in flight at once; RunHot puts many goroutines on
// one store-backed journaled market, most of them bidding on the same
// dataset, with ticks, registrations and batches interleaved — the
// regime where the order commands are applied in decides every posting
// price and wait period, and where a journal in any other order replays
// to a different market. No sequential model can predict a concurrent
// interleaving, so the reference here is the system's own promise:
// whatever order the commit stage chose, replaying the log, recovering
// the store and following the replication stream must each rebuild the
// leader byte for byte.
package torture

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// HotConfig configures one concurrent storm.
type HotConfig struct {
	// Seed fixes every goroutine's op stream (the interleaving is the
	// scheduler's).
	Seed uint64
	// Ops is the total number of operations (default 20_000).
	Ops int
	// Dir is the working directory: the leader's store lives under it.
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// canaryUnordered reintroduces the unlock-before-append window
	// (journal.Market.TestUnorderedCommit); the journal-replay check
	// must trip. canarySeam makes the feed lose the first record after
	// the joiner's disk tail (replica.Feed.TestDropSeam); the
	// join-mid-storm check must trip. In-package test hooks.
	canaryUnordered bool
	canarySeam      bool
}

const (
	hotDataset    = market.DatasetID("hot")
	hotDerived    = market.DatasetID("hot+cold0")
	hotColdSets   = 8
	hotGoroutines = 8   // drivers; a constant, so a repro line needs only seed and ops
	hotShare      = 0.8 // of bids, on the hot dataset (a tenth of those via the derived one)
	hotTickGap    = 64  // ops between one goroutine's ticks

	hotRegisterShare = 0.10 // of ops, registering a fresh buyer mid-storm
	hotBatchShare    = 0.03 // of ops, a three-bid SubmitBids batch
	hotRecentBuyers  = 24   // bids come from a goroutine's newest buyers
	hotCheckpoints   = 8    // quiescent checkpoints per storm
	hotJoinRound     = 1    // the round a follower joins in (join.go)
)

// hotWorker is one goroutine's persistent state across rounds.
type hotWorker struct {
	id     int
	rng    *rng.RNG
	buyers []market.BuyerID
	done   int // ops issued so far
	reject int
}

// RunHot executes one storm and returns its report (Rejections counts
// business refusals: cadence, wait, already owned), or a *Failure
// naming the first check that did not hold.
func RunHot(cfg HotConfig) (*Report, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 20_000
	}
	if cfg.Dir == "" {
		return nil, errors.New("torture: hot storm needs a working directory")
	}
	// Segments and the checkpoint cadence are small enough that a storm
	// rotates and crosses several cadence checkpoints mid-flight; the
	// whole history is retained, because every checkpoint replays it.
	sc := journal.StoreConfig{SegmentRecords: 4096, CheckpointEvery: int64(max(cfg.Ops/12, 500)), RetainSegments: -1}
	dir := filepath.Join(cfg.Dir, "leader")
	jm, _, err := journal.OpenStore(market.Config{Engine: DefaultEngine(), Seed: cfg.Seed}, dir, sc)
	if err != nil {
		return nil, fmt.Errorf("torture: hot leader: %w", err)
	}
	defer jm.Close()
	twin, err := newFollowerTwin(Config{}, jm, hotRing)
	if err != nil {
		return nil, fmt.Errorf("torture: hot follower twin: %w", err)
	}
	defer twin.close()
	join := newJoiner(twin.feed)
	defer join.close()
	if cfg.canarySeam {
		twin.feed.TestDropSeam()
	}

	h := &hotStorm{cfg: cfg, jm: jm, dir: dir, twin: twin, join: join}
	if err := h.seed(); err != nil {
		return nil, err
	}
	if cfg.canaryUnordered {
		// Armed once the follower holds the catalog: a catch-up snapshot
		// taken inside the canary's window is ahead of its seq, and would
		// trip the follower check before the one the canary is there for.
		if reason := twin.check(jm, 10*time.Second); reason != "" {
			return nil, h.fail(0, "%s", reason)
		}
		jm.TestUnorderedCommit(runtime.Gosched)
	}
	workers := make([]*hotWorker, hotGoroutines)
	for g := range workers {
		workers[g] = &hotWorker{id: g, rng: rng.New(cfg.Seed).Fork(fmt.Sprintf("hot-%d", g))}
	}

	rep := &Report{Seed: cfg.Seed, Ops: cfg.Ops}
	for r, issued := 0, 0; issued < cfg.Ops; r++ {
		round := min(max(cfg.Ops/hotCheckpoints, 512), cfg.Ops-issued)
		if r == hotJoinRound {
			// The joiner's snapshot is a checkpoint taken here; it
			// subscribes once the ring has moved past it, mid-storm.
			if err := join.start(jm); err != nil {
				return nil, h.fail(issued, "join-mid-storm: checkpoint: %v", err)
			}
		}
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for g, w := range workers {
			share := round / len(workers)
			if g < round%len(workers) {
				share++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = h.drive(w, share)
			}()
		}
		wg.Wait()
		issued += round
		for g, err := range errs {
			if err != nil {
				return nil, h.fail(issued, "goroutine %d: %v", g, err)
			}
		}
		if f := h.checkpoint(issued); f != nil {
			return nil, f
		}
		rep.Checkpoints++
		if cfg.Logf != nil {
			cfg.Logf("op %d/%d: seq=%d period=%d revenue=%s", issued, cfg.Ops, jm.LastSeq(), jm.Period(), jm.Revenue())
		}
	}
	// The joiner may have joined after the last checkpoint looked.
	if join.f.Load() == nil {
		return nil, h.fail(cfg.Ops, "join-mid-storm: the storm ended before the joiner joined, %d records after round %d's checkpoint (raise -ops)",
			2*hotRing, hotJoinRound)
	}
	if reason := join.check(jm, 10*time.Second); reason != "" {
		return nil, h.fail(cfg.Ops, "%s", reason)
	}
	if err := join.close(); err != nil {
		return nil, h.fail(cfg.Ops, "join-mid-storm: starting the joiner: %v", err)
	}
	for _, w := range workers {
		rep.Rejections += w.reject
	}
	rep.Allocations = jm.TxCount()
	rep.Revenue = jm.Revenue()
	return rep, nil
}

type hotStorm struct {
	cfg  HotConfig
	jm   *journal.Market
	dir  string
	twin *followerTwin
	join *joiner
}

func (h *hotStorm) fail(opIdx int, format string, args ...any) *Failure {
	return &Failure{
		Seed: h.cfg.Seed, Ops: h.cfg.Ops, Mode: "hot",
		OpIndex: opIdx, OpDesc: fmt.Sprintf("%d goroutines", hotGoroutines),
		Reason: fmt.Sprintf(format, args...),
	}
}

func coldDataset(i int) market.DatasetID { return market.DatasetID(fmt.Sprintf("cold%d", i)) }

// seed registers the catalog: two sellers, the hot dataset, the cold
// ones, and a derived dataset whose bids propagate demand to the hot
// engine.
func (h *hotStorm) seed() error {
	steps := []error{
		h.jm.RegisterSeller("s0"), h.jm.RegisterSeller("s1"),
		h.jm.UploadDataset("s0", hotDataset),
	}
	for i := 0; i < hotColdSets; i++ {
		steps = append(steps, h.jm.UploadDataset(market.SellerID(fmt.Sprintf("s%d", i%2)), coldDataset(i)))
	}
	steps = append(steps, h.jm.ComposeDataset(hotDerived, hotDataset, coldDataset(0)))
	return errors.Join(steps...)
}

// drive issues n ops from one goroutine. A business rejection is
// traffic; any other error ends the storm.
func (h *hotStorm) drive(w *hotWorker, n int) error {
	cands := DefaultEngine().Candidates
	lo, hi := slices.Min(cands), slices.Max(cands)
	bid := func() market.BidRequest {
		// Recent buyers only: an old hand owns the hot dataset or is
		// sitting out a wait on it, and a storm of refusals tests nothing.
		recent := w.buyers[max(0, len(w.buyers)-hotRecentBuyers):]
		req := market.BidRequest{
			Buyer:   recent[w.rng.Intn(len(recent))],
			Dataset: coldDataset(w.rng.Intn(hotColdSets)),
			Amount:  w.rng.Uniform(lo/2, hi*1.2),
		}
		if w.rng.Bool(hotShare) {
			req.Dataset = hotDataset
			if w.rng.Bool(0.1) {
				req.Dataset = hotDerived
			}
		}
		return req
	}
	for ; n > 0; n-- {
		w.done++
		var err error
		switch p := w.rng.Float64(); {
		case len(w.buyers) == 0 || p < hotRegisterShare:
			id := market.BuyerID(fmt.Sprintf("b%d-%d", w.id, len(w.buyers)))
			if err = h.jm.RegisterBuyer(id); err == nil {
				w.buyers = append(w.buyers, id)
			}
		case w.done%hotTickGap == 0:
			_, err = h.jm.Tick()
		case p < hotRegisterShare+hotBatchShare:
			for _, res := range h.jm.SubmitBids([]market.BidRequest{bid(), bid(), bid()}) {
				if res.Err != nil {
					if !isRejection(res.Err) {
						err = res.Err
					}
					w.reject++
				}
			}
		default:
			req := bid()
			_, err = h.jm.SubmitBid(req.Buyer, req.Dataset, req.Amount)
			if err != nil && isRejection(err) {
				w.reject++
				err = nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func isRejection(err error) bool {
	return errors.Is(err, market.ErrBidTooSoon) || errors.Is(err, market.ErrWaitActive) || errors.Is(err, market.ErrAlreadyAcquired)
}

// checkpoint runs with every goroutine parked. In order: the books
// balance; replaying the whole journal (checkpoints deleted) rebuilds
// the leader; recovering the store (newest checkpoint plus tail)
// rebuilds the leader; the follower twin, and the joiner once it has
// joined, have converged on the leader.
func (h *hotStorm) checkpoint(opIdx int) *Failure {
	if err := h.jm.CheckBooks(); err != nil {
		return h.fail(opIdx, "%v", err)
	}

	scratch, err := os.MkdirTemp(h.cfg.Dir, "check-*")
	if err != nil {
		return h.fail(opIdx, "checkpoint scratch: %v", err)
	}
	defer os.RemoveAll(scratch)
	for _, what := range []string{"journal replay", "store recovery"} {
		copied := filepath.Join(scratch, what)
		if err := copyDir(h.dir, copied); err != nil {
			return h.fail(opIdx, "%s: copying the store: %v", what, err)
		}
		if what == "journal replay" {
			ckpts, _ := filepath.Glob(filepath.Join(copied, "*.ckpt"))
			for _, c := range ckpts {
				os.Remove(c)
			}
		}
		if err := journal.CheckRecovery(copied, h.jm); err != nil {
			return h.fail(opIdx, "%s does not rebuild the leader: %v", what, err)
		}
	}
	if reason := h.twin.check(h.jm, 10*time.Second); reason != "" {
		return h.fail(opIdx, "%s", reason)
	}
	if reason := h.join.check(h.jm, 10*time.Second); reason != "" {
		return h.fail(opIdx, "%s", reason)
	}
	return nil
}
