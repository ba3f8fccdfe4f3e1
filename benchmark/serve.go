package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/stats"
)

const (
	setupRepeats = 3 // set-ups per run; setup_s is their median
	serveRounds  = 5 // equal-work rounds of the measured phase
)

// serveSpec is one closed-loop serving workload: callers that wait for
// each reply, one goroutine per connection.
type serveSpec struct {
	transport string // "wire" or "http"
	// opsPerSecond is the nominal rate that turns Config.Seconds into
	// an op count (roughly what this sandbox sustains).
	opsPerSecond float64
	readShare    float64
}

// serveStoreConfig is the store the serving workloads run on: checkpoints
// every 50 000 records, so a run crosses several asynchronous
// checkpoints and compactions.
var serveStoreConfig = journal.StoreConfig{CheckpointEvery: 50_000}

// tally counts what happened to the ops a worker attempted.
type tally struct {
	attempted, failed, rejected int
	// acked counts acknowledged writes: each is one journal record.
	acked int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.rejected += o.rejected
	t.acked += o.acked
}

// record classifies one op's outcome. The three business rejections
// are answers, not failures; anything else that is not success fails
// the run.
func (t *tally) record(k opKind, err error) {
	t.attempted++
	if err == nil {
		if k.writes() {
			t.acked++
		}
		return
	}
	var ae *apierr.APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case apierr.CodeBlockedUntil, apierr.CodeBidTooSoon, apierr.CodeAlreadyAcquired:
			t.rejected++
			return
		}
	}
	t.failed++
}

// do issues one planned op on c.
func (p *plan) do(ctx context.Context, c client.Client, o op) error {
	var err error
	switch o.kind {
	case opBid:
		_, err = c.SubmitBid(ctx, p.buyers[o.buyer], p.datasets[o.dataset], o.amount)
	case opTick:
		_, err = c.Tick(ctx)
	case opPeriod:
		_, err = c.Period(ctx)
	case opStats:
		_, err = c.Stats(ctx, p.datasets[o.dataset])
	case opWait:
		_, err = c.WaitRemaining(ctx, p.buyers[o.buyer], p.datasets[o.dataset])
	case opBalance:
		_, err = c.SellerBalance(ctx, seller)
	}
	return err
}

// serveWorker is one connection and the goroutine that drives it.
type serveWorker struct {
	c     client.Client
	close func()
	tally tally
	// lat is the client-observed time of each measured op, in
	// nanoseconds; starts is when each began, relative to the span
	// recorder's origin (traced rounds only).
	lat    []uint32
	starts []int64
}

// run drives ops[lo:hi] in a closed loop. With origin set it also
// records when each op started.
func (w *serveWorker) run(p *plan, ops []op, lo, hi int, timed bool, origin time.Time) {
	ctx := context.Background()
	for i := lo; i < hi; i++ {
		start := time.Now()
		err := p.do(ctx, w.c, ops[i])
		d := time.Since(start)
		w.tally.record(ops[i].kind, err)
		if timed {
			w.lat = append(w.lat, uint32(min(d, time.Duration(1<<32-1))))
			if !origin.IsZero() {
				w.starts = append(w.starts, start.Sub(origin).Nanoseconds())
			}
		}
	}
}

// serveSetup boots a stack, dials one client per worker and runs the
// untimed warm-up slice — the first warm ops of every worker's plan —
// so connections, buffers and the heap are at working size before
// anything is measured.
func serveSetup(dir string, seed uint64, spec serveSpec, p *plan, warm int) (*stack, []*serveWorker, error) {
	st, err := startStack(dir, seed, len(p.buyers), serveStoreConfig)
	if err != nil {
		return nil, nil, err
	}
	workers := make([]*serveWorker, len(p.workers))
	for i := range workers {
		c, closeFn, err := st.dial(spec.transport)
		if err != nil {
			for _, w := range workers[:i] {
				w.close()
			}
			_ = st.close()
			return nil, nil, err
		}
		workers[i] = &serveWorker{c: c, close: closeFn}
	}
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(p, p.workers[i], 0, warm, false, time.Time{})
		}()
	}
	wg.Wait()
	return st, workers, nil
}

func runServe(cfg Config, spec serveSpec) (*Report, error) {
	conns := min(runtime.NumCPU(), 4)
	perRound := max(1, int(cfg.Seconds*spec.opsPerSecond)/(conns*serveRounds))
	perWorker := perRound * serveRounds
	warm := max(1, perWorker/10)
	p := newPlan(cfg.Seed, marketBuyers(cfg.Seconds), conns, warm+perWorker, spec.readShare)

	// Set-up, several times over: a single sub-two-second set-up is a
	// start-up lottery, the median of three is not. The last stack is
	// the one measured.
	var (
		st      *stack
		workers []*serveWorker
		setup   []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			closeWorkers(workers)
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		st, workers, err = serveSetup(filepath.Join(cfg.WorkDir, fmt.Sprintf("store-%d", i)), cfg.Seed, spec, p, warm)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer func() {
		closeWorkers(workers)
		_ = st.close()
	}()
	for _, w := range workers {
		w.lat = make([]uint32, 0, perWorker)
		if cfg.Trace {
			w.starts = make([]int64, 0, perWorker)
		}
	}

	// Measured phase, in equal-work rounds. In a traced run every other
	// round records span starts and the rounds between do not, so
	// tracing overhead is a comparison of neighbouring rounds on one
	// stack rather than of two runs.
	var rec *spanRecorder
	if cfg.Trace {
		rec = newSpanRecorder()
	}
	roundStart := make([]time.Time, serveRounds)
	roundWall := make([]time.Duration, serveRounds)
	ph := newPhase()
	ph.start()
	for r := 0; r < serveRounds; r++ {
		var origin time.Time
		if cfg.Trace && r%2 == 0 {
			origin = rec.t0
		}
		lo := warm + r*perRound
		var wg sync.WaitGroup
		roundStart[r] = time.Now()
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(p, p.workers[i], lo, lo+perRound, true, origin)
			}()
		}
		wg.Wait()
		roundWall[r] = time.Since(roundStart[r])
	}
	ph.stop()
	ph.finish()
	ops := perWorker * conns

	// Quiesce: clients idle, one synchronous checkpoint so no background
	// one is holding a snapshot, then measure what is live.
	if err := st.jm.Store().Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	heap := heapLiveMiB()

	var total tally
	all := make([]uint32, 0, ops)
	rates := make([]float64, serveRounds)
	wallRates := make([]float64, serveRounds)
	for r := range rates {
		lo := len(all)
		for _, w := range workers {
			all = append(all, w.lat[r*perRound:(r+1)*perRound]...)
		}
		round := all[lo:]
		slices.Sort(round)
		rates[r] = serviceRate(round, conns)
		wallRates[r] = float64(len(round)) / roundWall[r].Seconds()
	}
	for _, w := range workers {
		total.add(w.tally)
	}
	slices.Sort(all)
	rep := &Report{
		Attempted:  total.attempted,
		Failed:     total.failed,
		Rejected:   total.rejected,
		RoundRates: rates,
		WallRates:  wallRates,
		EndToEnd:   endToEnd(setup, serviceRate(all, conns), quantileUS(all, 0.5), ph, ops, heap),
	}
	rep.Correct, rep.Checks = checkServe(st, seedRecords(len(p.buyers)), total)

	if cfg.Trace {
		var on, off []float64
		for r, rate := range rates {
			if r%2 == 0 {
				on = append(on, rate)
			} else {
				off = append(off, rate)
			}
		}
		rep.PerLayer = ownLayerMetrics(ph, ops, quantileUS(all, 0.99), quantileUS(all, 0.999), 1-stats.Median(on)/stats.Median(off))
		rep.Checks = append(rep.Checks, fmt.Sprintf("client percentiles over %d ops", len(all)))
		serveSpans(rec, p, workers, warm, perRound, roundStart, roundWall)
		if err := ladderAndProbes(cfg, rep, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serviceRate is the closed loop's throughput with the host's stalls
// trimmed: callers ÷ the mean client-observed op time, the mean taken
// over the fastest 95 % of ops. In a closed loop, completed ops ÷ wall
// time is exactly callers ÷ mean op time; what the trim removes is the
// handful of ops a descheduled vCPU held for milliseconds, which on
// this sandbox halve a run's wall-clock rate one minute and not the
// next while its median op time moves a few percent (README, noise
// findings). sorted is op times in nanoseconds, ascending.
func serviceRate(sorted []uint32, callers int) float64 {
	kept := sorted[:len(sorted)-len(sorted)/20]
	var sum float64
	for _, ns := range kept {
		sum += float64(ns)
	}
	return float64(callers) * 1e9 * float64(len(kept)) / sum
}

func closeWorkers(ws []*serveWorker) {
	for _, w := range ws {
		w.close()
	}
}

// serveSpans turns the traced rounds' timing arrays into spans:
// run → round → worker → op.
func serveSpans(rec *spanRecorder, p *plan, workers []*serveWorker, warm, perRound int, roundStart []time.Time, roundWall []time.Duration) {
	last := len(roundStart) - 1
	root := rec.add(0, 0, "run", roundStart[0], roundStart[last].Add(roundWall[last]).Sub(roundStart[0]))
	for r := range roundStart {
		round := rec.add(root, 0, fmt.Sprintf("round-%d", r), roundStart[r], roundWall[r])
		if r%2 != 0 {
			continue
		}
		for wi, w := range workers {
			ws := rec.add(round, 0, fmt.Sprintf("worker-%d", wi), roundStart[r], roundWall[r])
			// Traced rounds are the even ones, so round r's starts sit at
			// slot r/2 of the starts array while its latencies sit at r.
			for i := 0; i < perRound; i++ {
				o := p.workers[wi][warm+r*perRound+i]
				start := rec.t0.Add(time.Duration(w.starts[(r/2)*perRound+i]))
				d := time.Duration(w.lat[r*perRound+i])
				rec.add(ws, (warm+r*perRound+i)*len(workers)+wi+1, opNames[o.kind], start, d)
			}
		}
	}
}

// checkServe runs the serving workloads' correctness checks on the
// quiesced stack: no failed op, money conserved, and the journal holds
// exactly one record per acknowledged write. Replay identity is
// reported, not gated — see the README: it cannot hold under
// concurrency until ROADMAP open item 1 lands.
func checkServe(st *stack, seeded int64, t tally) (bool, []string) {
	ok := true
	var checks []string
	note := func(pass bool, format string, a ...any) {
		verdict := "ok"
		if !pass {
			verdict, ok = "FAILED", false
		}
		checks = append(checks, verdict+": "+fmt.Sprintf(format, a...))
	}
	note(t.failed == 0, "%d of %d ops failed (%d business-rejected)", t.failed, t.attempted, t.rejected)

	revenue, spent, balances := st.jm.Totals()
	var txSum market.Money
	txs := st.jm.Transactions()
	for _, tx := range txs {
		txSum += tx.Price
	}
	note(revenue == spent && revenue == balances && revenue == txSum,
		"money conserved: revenue=%v spend=%v balances=%v tx-sum=%v over %d sales", revenue, spent, balances, txSum, len(txs))

	note(st.jm.LastSeq() == seeded+t.acked, "journal seq %d == %d seeding records + %d acknowledged writes", st.jm.LastSeq(), seeded, t.acked)

	identical, err := replayIdentical(st.jm, st.dir)
	if err != nil {
		note(false, "store recovery: %v", err)
	} else {
		checks = append(checks, fmt.Sprintf("reported: replay_identical=%d (recovered snapshot vs live; not gated under concurrency, ROADMAP item 1)", b2i(identical)))
	}
	return ok, checks
}

// replayIdentical recovers dir read-only and compares the recovered
// market's canonical snapshot with the live one, byte for byte.
func replayIdentical(jm *journal.Market, dir string) (bool, error) {
	live, err := jm.Snapshot().Canonical()
	if err != nil {
		return false, err
	}
	restored, seq, _, err := journal.RecoverDir(dir)
	if err != nil {
		return false, err
	}
	if seq != jm.LastSeq() {
		return false, fmt.Errorf("recovered seq %d, live at %d", seq, jm.LastSeq())
	}
	got, err := restored.Snapshot().Canonical()
	if err != nil {
		return false, err
	}
	return bytes.Equal(live, got), nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
