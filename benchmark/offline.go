package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/datamarket/shield/internal/experiments"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/stats"
)

// The two workloads with no sockets in them: store_recover reads what
// the journal wrote, paper_sim regenerates the paper's figures.

const (
	// recoverOpsPerSecond turns Config.Seconds into the size of the
	// store that store_recover builds and then recovers.
	recoverOpsPerSecond = 2000
	recoverRounds       = 12
	simRounds           = 5
	// simSeriesPerSecond turns Config.Seconds into the experiments'
	// Series; the paper's 100 is both reached at 12 s and the ceiling.
	simSeriesPerSecond = 8.34
	// offlineGCPercent is GOGC for these two workloads, set-up included.
	// Their live heap is a fraction of a megabyte to a few, so at the
	// default 100 the collector runs off Go's 4 MiB floor: a cycle every
	// few milliseconds, each needing the second vCPU promptly — which
	// this kind of host withholds for a minute at a time, and the runs
	// caught in such a minute were 40 % slower where the same work at
	// this setting lost 15 %. 800 puts the floor at 32 MiB, which paces
	// cycles about as the serving workloads' real heaps pace theirs.
	// Allocation counts, the gated measure of garbage, do not change.
	offlineGCPercent = 800
)

// builtStore is what one store_recover set-up leaves behind.
type builtStore struct {
	dir     string
	seq     int64
	live    []byte // canonical snapshot of the builder's market
	tally   tally
	records int // records a recovery replays: the whole history, genesis included
}

// buildStore writes a store single-threaded and in process — seeding,
// then the plan's bids and ticks through journal.Market — with
// checkpoints off, so recovery has the whole history to replay.
func buildStore(dir string, seed uint64, p *plan) (*builtStore, error) {
	jm, err := openStore(dir, seed, len(p.buyers), journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1}, nil, false)
	if err != nil {
		return nil, err
	}
	b := &builtStore{dir: dir}
	for _, o := range p.workers[0] {
		if o.kind == opTick {
			_, err = jm.Tick()
		} else {
			_, err = jm.SubmitBid(p.buyers[o.buyer], p.datasets[o.dataset], o.amount)
		}
		if err != nil && !isBusinessRejection(err) {
			_ = jm.Close()
			return nil, fmt.Errorf("building store: %w", err)
		}
		b.tally.attempted++
		if err != nil {
			b.tally.rejected++
		} else {
			b.tally.acked++
		}
	}
	b.seq = jm.LastSeq()
	b.records = int(b.seq)
	if b.live, err = jm.Snapshot().Canonical(); err != nil {
		_ = jm.Close()
		return nil, err
	}
	return b, jm.Close()
}

func isBusinessRejection(err error) bool {
	return errors.Is(err, market.ErrWaitActive) || errors.Is(err, market.ErrBidTooSoon) || errors.Is(err, market.ErrAlreadyAcquired)
}

func runRecover(cfg Config) (*Report, error) {
	defaultGC := debug.SetGCPercent(offlineGCPercent)
	defer debug.SetGCPercent(defaultGC)
	p := newPlan(cfg.Seed, marketBuyers(cfg.Seconds), 1, max(1, int(cfg.Seconds*recoverOpsPerSecond)), 0)
	var (
		built *builtStore
		setup []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if built != nil {
			_ = os.RemoveAll(built.dir)
		}
		start := time.Now()
		var err error
		built, err = buildStore(filepath.Join(cfg.WorkDir, fmt.Sprintf("store-%d", i)), cfg.Seed, p)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer os.RemoveAll(built.dir)

	// One untimed recovery first: the page cache is then as every later
	// round finds it.
	if _, _, _, err := journal.RecoverDir(built.dir); err != nil {
		return nil, err
	}

	// Each round is one cold recovery, started from a collected heap and
	// checked — single writer, so the recovered market must be the
	// builder's, byte for byte — before the next begins; the phase is
	// stopped while the check runs.
	rec := newSpanRecorder()
	root := rec.add(0, 0, "run", time.Now(), 0)
	rates := make([]float64, recoverRounds)
	perRecordUS := make([]float64, recoverRounds)
	var last *market.Market
	diverged := 0
	ph := newPhase()
	for r := range rates {
		last = nil
		ph.start()
		start := time.Now()
		m, seq, replayed, err := journal.RecoverDir(built.dir)
		d := time.Since(start)
		ph.stop()
		if err != nil {
			return nil, err
		}
		if replayed != built.records {
			return nil, fmt.Errorf("recovery replayed %d records, store holds %d", replayed, built.records)
		}
		rates[r] = float64(built.records) / d.Seconds()
		perRecordUS[r] = d.Seconds() * 1e6 / float64(built.records)
		rec.add(root, r+1, "journal.RecoverDir", start, d)
		got, err := m.Snapshot().Canonical()
		if err != nil {
			return nil, err
		}
		if seq != built.seq || !bytes.Equal(got, built.live) {
			diverged++
		}
		last = m
	}
	ph.finish()
	rec.endNow(root)
	ops := built.records * recoverRounds
	debug.SetGCPercent(defaultGC)
	heap := heapLiveMiB()
	runtime.KeepAlive(last) // one recovered market is what is live

	// A caller waits for a whole recovery, so the time per op is the
	// recovery's time spread over its records: the same measurement as
	// the rate, seen from the other side.
	opUS := fastestThird(perRecordUS)

	rep := &Report{
		Attempted:  ops,
		Failed:     diverged * built.records,
		Rejected:   built.tally.rejected,
		RoundRates: rates,
		Correct:    diverged == 0,
		EndToEnd:   endToEnd(setup, 1e6/opUS, opUS, ph, ops, heap),
		Checks: []string{
			fmt.Sprintf("%s: %d of %d recoveries rebuilt seq %d and the builder's snapshot byte for byte (%d records each; %d build ops, %d business-rejected)",
				verdict(diverged == 0), recoverRounds-diverged, recoverRounds, built.seq, built.records, built.tally.attempted, built.tally.rejected),
		},
	}
	if cfg.Trace {
		// A recovery is timed whole: there is no per-op span to cost.
		rep.PerLayer = ownLayerMetrics(ph, ops, stats.Percentile(perRecordUS, 99), stats.Percentile(perRecordUS, 99.9), 0)
		rep.Checks = append(rep.Checks, fmt.Sprintf("client percentiles over %d recoveries", recoverRounds))
		if err := ladderAndProbes(cfg, rep, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

// simRound regenerates Figures 3b, 4b and 5a — the Epoch-Shield sweep,
// the strategic-bid sweep and the baseline comparison — and returns
// their results serialised, plus how long each took.
func simRound(o experiments.Options) ([]byte, [3]time.Duration, error) {
	var out [3]experiments.BoxSeries
	var took [3]time.Duration
	for i, fig := range []func(experiments.Options) (experiments.BoxSeries, error){experiments.Fig3b, experiments.Fig4b, experiments.Fig5a} {
		start := time.Now()
		bs, err := fig(o)
		took[i] = time.Since(start)
		if err != nil {
			return nil, took, err
		}
		out[i] = bs
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, took, err
	}
	for _, bs := range out {
		for _, sums := range bs.Groups {
			for _, s := range sums {
				for _, v := range []float64{s.Mean, s.P1, s.P25, s.Median, s.P75, s.P99} {
					if !(v >= 0 && v <= 1) {
						return nil, took, fmt.Errorf("normalised value %v outside [0, 1]", v)
					}
				}
			}
		}
	}
	return data, took, nil
}

// simSeries is the experiments' Series for a run of the given length:
// the paper's 100 at 12 seconds and above, and never under 2 (one
// series has no spread, and its summary is NaN).
func simSeries(seconds float64) int {
	return min(100, max(2, int(math.Ceil(seconds*simSeriesPerSecond))))
}

var simFigNames = [3]string{"experiments.Fig3b", "experiments.Fig4b", "experiments.Fig5a"}

func runSim(cfg Config) (*Report, error) {
	defaultGC := debug.SetGCPercent(offlineGCPercent)
	defer debug.SetGCPercent(defaultGC)
	series := simSeries(cfg.Seconds)
	opts := experiments.Options{Series: series, Seed: cfg.Seed}

	// Set-up is a half-scale round: there are no inputs to load — the
	// experiments derive theirs from the seed — so what set-up buys is
	// a heap and caches at working size.
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if _, _, err := simRound(experiments.Options{Series: max(2, series/2), Seed: cfg.Seed}); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	rec := newSpanRecorder()
	root := rec.add(0, 0, "run", time.Now(), 0)
	outputs := make([][]byte, simRounds)
	rates := make([]float64, simRounds)
	roundUS := make([]float64, simRounds)
	var figSeconds [3][]float64
	ph := newPhase()
	for r := range outputs {
		ph.start()
		start := time.Now()
		data, took, err := simRound(opts)
		d := time.Since(start)
		ph.stop()
		if err != nil {
			return nil, err
		}
		outputs[r] = data
		rates[r] = 1 / d.Seconds()
		roundUS[r] = float64(d.Nanoseconds()) / 1e3
		round := rec.add(root, r+1, fmt.Sprintf("round-%d", r), start, d)
		at := start
		for i, t := range took {
			figSeconds[i] = append(figSeconds[i], t.Seconds())
			rec.add(round, r+1, simFigNames[i], at, t)
			at = at.Add(t)
		}
	}
	ph.finish()
	rec.endNow(root)
	debug.SetGCPercent(defaultGC)
	heap := heapLiveMiB()

	// The op is one round, the three figures regenerated; each figure's
	// time is taken from its own fastest rounds, so a burst that lands
	// on one figure of one round spoils a fifteenth of the run.
	var roundSeconds float64
	for _, fig := range figSeconds {
		roundSeconds += fastestThird(fig)
	}

	differ := 0
	for _, out := range outputs[1:] {
		if !bytes.Equal(out, outputs[0]) {
			differ++
		}
	}
	rep := &Report{
		Attempted:  simRounds,
		Failed:     differ,
		RoundRates: rates,
		Correct:    differ == 0,
		EndToEnd:   endToEnd(setup, 1/roundSeconds, roundSeconds*1e6, ph, simRounds, heap),
		Checks: []string{
			fmt.Sprintf("%s: %d of %d rounds reproduced round 1 byte for byte (%d bytes, Series %d), every normalised value in [0, 1]",
				verdict(differ == 0), simRounds-differ, simRounds, len(outputs[0]), series),
		},
	}
	if cfg.Trace {
		// A round is three timed calls: there is no per-op span to cost.
		rep.PerLayer = ownLayerMetrics(ph, simRounds, stats.Percentile(roundUS, 99), stats.Percentile(roundUS, 99.9), 0)
		rep.Checks = append(rep.Checks, fmt.Sprintf("client percentiles over %d rounds", simRounds))
		if err := ladderAndProbes(cfg, rep, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
