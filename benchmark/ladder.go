package main

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/stats"
)

// The layer ladder. Five twin stacks, each one layer taller than the
// last, execute the same seeded ops from one goroutine:
//
//	command   bare command.State through command.Apply
//	market    market.Market.Apply           (+ locks, view publication)
//	journal   journal.Market.ApplyCtx       (+ encode, append, shadow apply)
//	wire      wire client → wire.Server     (+ binary framing, loopback TCP)
//	httpapi   HTTP client → httpapi         (+ JSON, net/http)
//
// Every twin has the same configuration and seed, so every op gets the
// same decision on all five, and a layer's self time is its rung minus
// the rung below — measured entirely from outside, through public
// functions. The rungs take turns a block of ops at a time, so each
// runs with warm caches and its allocations can be counted exactly
// (one runtime.ReadMemStats pair per block and rung).

const (
	// ladderOpsPerSecond turns Config.Seconds into the ladder's op
	// count: 20 000 at 12 s.
	ladderOpsPerSecond = 1667
	ladderBlock        = 256
)

var rungNames = [5]string{"command", "market", "journal", "wire", "httpapi"}

// outcome is what a twin answered, in a form that compares with == and
// costs no allocation to build.
type outcome struct {
	code      string // "" on success, else the apierr code
	allocated bool
	price     market.Money
	wait      int
	period    int // Tick only
}

func outcomeOf(d market.Decision, period int, err error) outcome {
	if err != nil {
		var ae *apierr.APIError
		if errors.As(err, &ae) {
			return outcome{code: ae.Code}
		}
		code, _ := apierr.Classify(err)
		return outcome{code: code}
	}
	return outcome{allocated: d.Allocated, price: d.PricePaid, wait: d.WaitPeriods, period: period}
}

func eventsOutcome(evs []command.Event, err error) outcome {
	if err != nil || len(evs) == 0 {
		return outcomeOf(market.Decision{}, 0, err)
	}
	if evs[0].Kind == command.EvTicked {
		return outcome{period: evs[0].Period}
	}
	return outcomeOf(evs[0].Decision, 0, nil)
}

// rung is one twin and what the ladder measured on it.
type rung struct {
	apply   func(o op) outcome
	lat     []uint32 // per op, ns
	starts  []int64  // per op, ns since the recorder's origin
	mallocs uint64
	// blockMeanUS is the mean op time of each block, in microseconds.
	blockMeanUS []float64
}

// ladder owns the five twins; the probes reuse their end states.
type ladder struct {
	p      *plan
	rungs  [5]rung
	state  *command.State
	market *market.Market
	jm     *journal.Market
	jmDir  string
	wire   *stack
	http   *stack
	// closers release clients and stacks, in reverse order of creation.
	closers []func()
	// mismatches counts ops on which the five twins did not all agree.
	mismatches int
}

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

func seedCommands(p *plan) []command.Command {
	buyers, datasets := p.buyers, p.datasets
	cmds := []command.Command{command.RegisterSeller{Seller: seller}}
	for _, d := range datasets {
		cmds = append(cmds, command.UploadDataset{Seller: seller, Dataset: d})
	}
	for _, b := range buyers {
		cmds = append(cmds, command.RegisterBuyer{Buyer: b})
	}
	return cmds
}

func newLadder(cfg Config) (*ladder, error) {
	n := max(4, int(cfg.Seconds*ladderOpsPerSecond)/ladderBlock) * ladderBlock
	l := &ladder{p: newPlan(cfg.Seed, marketBuyers(cfg.Seconds), 1, n, 0)}
	ok := false
	defer func() {
		if !ok {
			l.close()
		}
	}()
	mc := marketConfig(cfg.Seed)
	ctx := context.Background()

	var err error
	if l.state, err = command.NewState(mc); err != nil {
		return nil, err
	}
	if l.market, err = market.New(mc); err != nil {
		return nil, err
	}
	for _, c := range seedCommands(l.p) {
		if _, err := command.Apply(l.state, c); err != nil {
			return nil, err
		}
		if _, err := l.market.Apply(c); err != nil {
			return nil, err
		}
	}
	l.rungs[0].apply = func(o op) outcome { return eventsOutcome(command.Apply(l.state, l.p.command(o))) }
	l.rungs[1].apply = func(o op) outcome { return eventsOutcome(l.market.Apply(l.p.command(o))) }

	// The journal twin keeps its whole history (no checkpoints, no
	// compaction): the recovery probes replay it afterwards.
	l.jmDir = filepath.Join(cfg.WorkDir, "ladder-journal")
	l.jm, err = openStore(l.jmDir, cfg.Seed, len(l.p.buyers), journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1}, nil, false)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, func() { _ = l.jm.Close() })
	l.rungs[2].apply = func(o op) outcome { return eventsOutcome(l.jm.ApplyCtx(ctx, l.p.command(o))) }

	viaClient := func(c client.Client) func(o op) outcome {
		return func(o op) outcome {
			if o.kind == opTick {
				period, err := c.Tick(ctx)
				return outcomeOf(market.Decision{}, period, err)
			}
			d, err := c.SubmitBid(ctx, l.p.buyers[o.buyer], l.p.datasets[o.dataset], o.amount)
			return outcomeOf(d, 0, err)
		}
	}
	for i, transport := range []string{"wire", "http"} {
		st, err := startStack(filepath.Join(cfg.WorkDir, "ladder-"+transport), cfg.Seed, len(l.p.buyers), serveStoreConfig)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, func() { _ = st.close() })
		c, closeFn, err := st.dial(transport)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, closeFn)
		l.rungs[3+i].apply = viaClient(c)
		if transport == "wire" {
			l.wire = st
		} else {
			l.http = st
		}
	}
	ok = true
	return l, nil
}

// run climbs the ladder: block by block, every rung executes the
// block's ops, then the five answers to each op are compared.
func (l *ladder) run(rec *spanRecorder) {
	ops := l.p.workers[0]
	for i := range l.rungs {
		l.rungs[i].lat = make([]uint32, len(ops))
		l.rungs[i].starts = make([]int64, len(ops))
	}
	answers := make([][5]outcome, ladderBlock)
	var m0, m1 runtime.MemStats
	for lo := 0; lo < len(ops); lo += ladderBlock {
		for ri := range l.rungs {
			r := &l.rungs[ri]
			runtime.ReadMemStats(&m0)
			blockStart := time.Now()
			for i := lo; i < lo+ladderBlock; i++ {
				start := time.Now()
				answers[i-lo][ri] = r.apply(ops[i])
				r.lat[i] = uint32(min(time.Since(start), time.Duration(1<<32-1)))
				r.starts[i] = start.Sub(rec.t0).Nanoseconds()
			}
			r.blockMeanUS = append(r.blockMeanUS, float64(time.Since(blockStart).Microseconds())/ladderBlock)
			runtime.ReadMemStats(&m1)
			r.mallocs += m1.Mallocs - m0.Mallocs
		}
		for _, a := range answers {
			if a[0] != a[1] || a[0] != a[2] || a[0] != a[3] || a[0] != a[4] {
				l.mismatches++
			}
		}
	}
}

// selfUS is the layer's self time: the median, over blocks, of this
// rung's mean op time minus the rung below's (below < 0: none).
func (l *ladder) selfUS(rungIdx, below int) float64 {
	diffs := slices.Clone(l.rungs[rungIdx].blockMeanUS)
	if below >= 0 {
		for i := range diffs {
			diffs[i] -= l.rungs[below].blockMeanUS[i]
		}
	}
	return stats.Median(diffs)
}

func (l *ladder) selfAllocs(rungIdx, below int) float64 {
	a := float64(l.rungs[rungIdx].mallocs)
	if below >= 0 {
		a -= float64(l.rungs[below].mallocs)
	}
	return a / float64(len(l.p.workers[0]))
}

func (l *ladder) metrics() []Metric {
	return []Metric{
		{"command.apply_us", l.selfUS(0, -1), "us"},
		{"command.allocs_per_op", l.selfAllocs(0, -1), "1"},
		{"market.shell_us", l.selfUS(1, 0), "us"},
		{"market.allocs_per_op", l.selfAllocs(1, 0), "1"},
		{"journal.commit_us", l.selfUS(2, 1), "us"},
		{"journal.allocs_per_op", l.selfAllocs(2, 1), "1"},
		{"wire.transport_us", l.selfUS(3, 2), "us"},
		{"wire.allocs_per_op", l.selfAllocs(3, 2), "1"},
		{"httpapi.transport_us", l.selfUS(4, 2), "us"},
		{"httpapi.allocs_per_op", l.selfAllocs(4, 2), "1"},
		{"ladder.parity", float64(b2i(l.mismatches == 0)), "1"},
	}
}

// spans records the ladder as ladder → rung → op; the five spans of
// one op carry the same Op number.
func (l *ladder) spans(rec *spanRecorder) {
	ops := l.p.workers[0]
	first := time.Duration(l.rungs[0].starts[0])
	lastRung := l.rungs[len(l.rungs)-1]
	end := time.Duration(lastRung.starts[len(ops)-1]) + time.Duration(lastRung.lat[len(ops)-1])
	root := rec.add(0, 0, "ladder", rec.t0.Add(first), end-first)
	for ri, r := range l.rungs {
		rs := rec.add(root, 0, "ladder."+rungNames[ri], rec.t0.Add(first), end-first)
		names := [2]string{opBid: rungNames[ri] + ".bid", opTick: rungNames[ri] + ".tick"}
		for i := range ops {
			rec.add(rs, i+1, names[ops[i].kind], rec.t0.Add(time.Duration(r.starts[i])), time.Duration(r.lat[i]))
		}
	}
}
