package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/experiments"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/loadrig"
	"github.com/datamarket/shield/internal/mw"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/replica"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/sim"
	"github.com/datamarket/shield/internal/stats"
	"github.com/datamarket/shield/internal/timeseries"
	"github.com/datamarket/shield/internal/wire"
)

// The probes: small direct measurements of single layers, run after
// the ladder on its twins' end states. They have no bounds — they say
// where to look, the end-to-end metrics say whether it mattered.

// perCallNS times n calls of f and returns the mean in nanoseconds.
func perCallNS(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianMS runs f rounds times and returns the median duration in ms.
func medianMS(rounds int, f func()) float64 {
	ds := make([]float64, rounds)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start).Microseconds()) / 1e3
	}
	return stats.Median(ds)
}

var probeSink int

// probeMarket reads and snapshots the market twin's end state.
func probeMarket(l *ladder) []Metric {
	m := l.market
	read := perCallNS(300_000, func(i int) {
		switch i % 3 {
		case 0:
			s, _ := m.Stats(l.p.datasets[i%marketDatasets])
			probeSink += s.Bids
		case 1:
			w, _ := m.WaitRemaining(l.p.buyers[i%len(l.p.buyers)], l.p.datasets[i%marketDatasets])
			probeSink += w
		default:
			probeSink += m.Period()
		}
	})
	return []Metric{
		{"market.read_ns", read, "ns"},
		{"market.snapshot_ms", medianMS(5, func() { probeSink += len(m.Snapshot().Buyers) }), "ms"},
		{"market.transactions_ms", medianMS(5, func() { probeSink += len(m.Transactions()) }), "ms"},
	}
}

// probeCodec times the two command codecs over the ladder's commands,
// and a bare journal Writer appending them to a file without fsync.
func probeCodec(cfg Config, l *ladder) ([]Metric, error) {
	ops := l.p.workers[0]
	cmds := make([]command.Command, len(ops))
	events := make([]journal.Event, len(ops))
	for i, o := range ops {
		cmds[i] = l.p.command(o)
		e, err := journal.EventFromCommand(cmds[i])
		if err != nil {
			return nil, err
		}
		events[i] = e
	}
	js := make([][]byte, len(cmds))
	bin := make([][]byte, len(cmds))
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	ms := []Metric{
		{"command.encode_json_ns", perCallNS(len(cmds), func(i int) { b, e := command.EncodeJSON(cmds[i]); js[i] = b; keep(e) }), "ns"},
		{"command.decode_json_ns", perCallNS(len(cmds), func(i int) { _, e := command.DecodeJSON(js[i]); keep(e) }), "ns"},
		{"command.encode_binary_ns", perCallNS(len(cmds), func(i int) { b, e := command.EncodeBinary(cmds[i]); bin[i] = b; keep(e) }), "ns"},
		{"command.decode_binary_ns", perCallNS(len(cmds), func(i int) { _, e := command.DecodeBinary(bin[i]); keep(e) }), "ns"},
	}
	if err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.WorkDir, "append-probe.journal")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	w := journal.NewWriter(f)
	if err := w.Genesis(marketConfig(cfg.Seed)); err != nil {
		return nil, err
	}
	ms = append(ms, Metric{"journal.append_ns", perCallNS(len(events), func(i int) { keep(w.Append(events[i])) }), "ns"})
	if err == nil {
		err = w.Close()
	}
	return ms, err
}

// probeStore reads the journal twin's store back: decode-only scan,
// full recovery, replica catch-up, then a checkpoint and a zero-tail
// recovery from it.
func probeStore(l *ladder) ([]Metric, error) {
	st := l.jm.Store()
	inv := st.Inventory()
	var segBytes int64
	for _, s := range inv.Segments {
		segBytes += s.Bytes
	}
	records := l.jm.LastSeq()
	ms := []Metric{{"journal.bytes_per_op", float64(segBytes) / float64(records), "B"}}

	// Scan: decode every record, apply none.
	start := time.Now()
	var scanned int64
	for _, s := range inv.Segments {
		n, err := scanSegmentFile(filepath.Join(l.jmDir, s.Name))
		if err != nil {
			return nil, err
		}
		scanned += n
	}
	scanD := time.Since(start)
	if scanned != records {
		return nil, fmt.Errorf("scan probe decoded %d records, store holds %d", scanned, records)
	}
	ms = append(ms, Metric{"journal.scan_records_per_s", float64(scanned) / scanD.Seconds(), "1/s"})

	start = time.Now()
	_, _, replayed, err := journal.RecoverDir(l.jmDir)
	if err != nil {
		return nil, err
	}
	ms = append(ms, Metric{"journal.recover_records_per_s", float64(replayed) / time.Since(start).Seconds(), "1/s"})

	catchup, err := probeReplica(l)
	if err != nil {
		return nil, err
	}
	ms = append(ms, catchup)

	start = time.Now()
	if err := st.Checkpoint(); err != nil {
		return nil, err
	}
	ms = append(ms, Metric{"journal.checkpoint_ms", float64(time.Since(start).Microseconds()) / 1e3, "ms"})

	start = time.Now()
	_, _, tail, err := journal.RecoverDir(l.jmDir)
	if err != nil {
		return nil, err
	}
	if tail != 0 {
		return nil, fmt.Errorf("recovery after a checkpoint replayed %d records, want 0", tail)
	}
	return append(ms, Metric{"journal.checkpoint_load_ms", float64(time.Since(start).Microseconds()) / 1e3, "ms"}), nil
}

// scanSegmentFile decodes one segment's records with journal.Scan and
// returns how many it held. The first line is the segment head, which
// names the first record's sequence number.
func scanSegmentFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	headLine, err := br.ReadBytes('\n')
	if err != nil {
		return 0, err
	}
	var head struct {
		Base int64 `json:"base"`
	}
	if err := json.Unmarshal(headLine, &head); err != nil {
		return 0, err
	}
	var n int64
	_, _, err = journal.Scan(br, head.Base, func(journal.Event) error { n++; return nil })
	return n, err
}

// probeReplica times a fresh follower catching up with the journal
// twin's end state over loopback.
func probeReplica(l *ladder) (Metric, error) {
	feed, err := replica.NewFeed(l.jm, 0)
	if err != nil {
		return Metric{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Metric{}, err
	}
	defer ln.Close()
	go func() { _ = wire.NewServer(l.jm).WithReplication(feed).Serve(ln) }()

	start := time.Now()
	f, err := replica.Start(replica.Config{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Name: "probe",
	})
	if err != nil {
		return Metric{}, err
	}
	defer f.Close()
	want := feed.LeaderSeq()
	for f.Applied() < want {
		if time.Since(start) > 30*time.Second {
			return Metric{}, fmt.Errorf("replica probe: follower at %d of %d after 30s", f.Applied(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return Metric{"replica.catchup_records_per_s", float64(want) / time.Since(start).Seconds(), "1/s"}, nil
}

// stageP50US reads one stage of the server's own shield_stage_seconds
// histograms, in microseconds; 0 when the stage never ran.
func stageP50US(tel *obs.Telemetry, stage string) float64 {
	h, ok := tel.Registry.FindHistogram("shield_stage_seconds", stage)
	if !ok || h.Count() == 0 {
		return 0
	}
	return h.Quantile(0.5) * 1e6
}

// probeTransports measures round trips and the two non-closed-loop
// shapes on the wire and HTTP twins. fresh is a plan of bids no twin
// has seen, so the probes' bids are accepted like the ladder's were.
func probeTransports(l *ladder, fresh []op) ([]Metric, error) {
	ctx := context.Background()
	wc, closeWire, err := l.wire.dial("wire")
	if err != nil {
		return nil, err
	}
	defer closeWire()
	hc, closeHTTP, err := l.http.dial("http")
	if err != nil {
		return nil, err
	}
	defer closeHTTP()

	rtt := func(n int, call func() error) (float64, error) {
		ds := make([]float64, n)
		for i := range ds {
			start := time.Now()
			if err := call(); err != nil {
				return 0, err
			}
			ds[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		return stats.Median(ds), nil
	}
	wireRTT, err := rtt(2000, func() error { return wc.Ping(ctx) })
	if err != nil {
		return nil, err
	}
	httpRTT, err := rtt(2000, func() error { _, err := hc.Period(ctx); return err })
	if err != nil {
		return nil, err
	}
	ms := []Metric{
		{"wire.ping_rtt_us", wireRTT, "us"},
		{"httpapi.ping_rtt_us", httpRTT, "us"},
	}

	// Sixteen callers sharing one connection. The client serialises a
	// connection's calls today, so this sits at the depth-1 rate; a
	// client and server that overlap them into one commit group move
	// this number first.
	half := len(fresh) / 2
	var t tally
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			for i := g; i < half; i += 16 {
				mine.record(fresh[i].kind, l.p.do(ctx, wc, fresh[i]))
			}
			mu.Lock()
			t.add(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ms = append(ms, Metric{"wire.pipelined_ops_per_s", float64(half) / time.Since(start).Seconds(), "1/s"})

	// Open loop: ops are due on a fixed 4 000/s schedule whatever the
	// server does, and each is timed from when it was due, so a stall
	// shows as queueing in the tail. Two connections serve the schedule.
	paced := fresh[half:]
	type slot struct {
		o   op
		due time.Time
	}
	slots := make(chan slot, len(paced)) // holds the whole schedule: the generator never blocks on a slow server
	lat := make([][]float64, 2)
	tallies := make([]tally, 2)
	for w := range lat {
		c, closeFn, err := l.wire.dial("wire")
		if err != nil {
			return nil, err
		}
		defer closeFn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range slots {
				err := l.p.do(ctx, c, s.o)
				lat[w] = append(lat[w], float64(time.Since(s.due).Nanoseconds())/1e3)
				tallies[w].record(s.o.kind, err)
			}
		}()
	}
	pacer, err := loadrig.NewPacer(4000)
	if err != nil {
		return nil, err
	}
	late := 0
	for _, o := range paced {
		due := pacer.Next()
		if time.Since(due) > time.Millisecond {
			late++
		}
		slots <- slot{o, due}
	}
	close(slots)
	wg.Wait()
	all := append(lat[0], lat[1]...)
	t.add(tallies[0])
	t.add(tallies[1])
	if t.failed > 0 {
		return nil, fmt.Errorf("transport probes: %d of %d ops failed", t.failed, t.attempted)
	}
	return append(ms,
		Metric{"wire.paced_p99_us", stats.Percentile(all, 99), "us"},
		Metric{"wire.paced_late_share", float64(late) / float64(len(paced)), "1"},
	), nil
}

// probeDurable is the one place the fsync path runs: 32 goroutines bid
// through journal.Market on a store with WithFsync on, so commit groups
// form behind real flushes of whatever disk the checkout is on. Its
// throughput is that disk's; its counts (records per group, fsyncs per
// op) and the replay-identity bit are the code's.
func probeDurable(cfg Config) ([]Metric, error) {
	dir := filepath.Join(cfg.WorkDir, "durable")
	defer os.RemoveAll(dir)
	// Seed without fsync (4 162 flushes would dominate the probe), then
	// reopen the store durable.
	const goroutines = 32
	p := newPlan(cfg.Seed, marketBuyers(cfg.Seconds), goroutines, max(8, int(cfg.Seconds*16)), 0)
	jm, err := openStore(dir, cfg.Seed, len(p.buyers), journal.StoreConfig{CheckpointEvery: -1}, nil, false)
	if err != nil {
		return nil, err
	}
	if err := jm.Close(); err != nil {
		return nil, err
	}
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(1, 0, cfg.Seed)}
	jm, _, err = journal.OpenStore(marketConfig(cfg.Seed), dir, journal.StoreConfig{CheckpointEvery: -1},
		journal.WithGroupCommit(0), journal.WithFsync(), journal.WithTelemetry(tel))
	if err != nil {
		return nil, err
	}
	defer jm.Close()

	ctx := context.Background()
	tallies := make([]tally, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range p.workers[g] {
				var err error
				if o.kind == opTick {
					_, err = jm.Tick()
				} else {
					_, err = jm.SubmitBidCtx(ctx, p.buyers[o.buyer], p.datasets[o.dataset], o.amount)
				}
				if err != nil && isBusinessRejection(err) {
					tallies[g].attempted++
					tallies[g].rejected++
					continue
				}
				tallies[g].record(o.kind, err)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	var t tally
	for _, x := range tallies {
		t.add(x)
	}
	if t.failed > 0 {
		return nil, fmt.Errorf("durable probe: %d of %d ops failed", t.failed, t.attempted)
	}
	identical, err := replayIdentical(jm, dir)
	if err != nil {
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	var fsyncs, groupP50 float64
	if h, ok := tel.Registry.FindHistogram("shield_journal_fsync_seconds"); ok {
		fsyncs = float64(h.Count())
	}
	if h, ok := tel.Registry.FindHistogram("shield_journal_group_records"); ok && h.Count() > 0 {
		groupP50 = h.Quantile(0.5)
	}
	return []Metric{
		{"journal.group_commit_ops_per_s", float64(t.attempted) / d.Seconds(), "1/s"},
		{"journal.group_records_p50", groupP50, "count"},
		{"journal.fsyncs_per_op", fsyncs / float64(t.acked), "1"},
		{"journal.replay_identical", float64(b2i(identical)), "1"},
		{"obs.stage_fsync_p50_us", stageP50US(tel, "group_commit.fsync"), "us"},
	}, nil
}

// probePaper calls the pricing stack directly at the paper's scale: 40
// candidates, epochs of 8, 250-bid windows.
func probePaper(cfg Config) ([]Metric, error) {
	// Iteration counts shrink with a miniature run, to a hundredth at least.
	scaled := func(n int) int { return max(1, n/100, int(float64(n)*min(1, cfg.Seconds/12))) }
	ec := marketConfig(cfg.Seed).Engine
	ec.Seed = cfg.Seed
	r := rng.New(cfg.Seed).Fork("probe-paper")
	const window = 250
	bids := make([]float64, scaled(64)*window)
	for i := range bids {
		bids[i] = math.Max(1, r.Normal(100, 30))
	}

	// One fresh engine per 250-bid window, as a simulated series or a
	// young dataset sees it; the bids that complete an epoch are the
	// epoch closes.
	var eng *core.Engine
	var err error
	var closes []float64
	start := time.Now()
	for i, b := range bids {
		if i%window == 0 {
			ec.Seed = cfg.Seed + uint64(i)
			if eng, err = core.New(ec); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d := eng.SubmitBid(b)
		if i%window%ec.EpochSize == ec.EpochSize-1 {
			closes = append(closes, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		probeSink += d.Wait
	}
	submitNS := float64(time.Since(start).Nanoseconds()) / float64(len(bids))
	waitUS := perCallNS(scaled(4000), func(i int) { probeSink += eng.ComputeWaitPeriod(20 + float64(i%40)) }) / 1e3

	learner := mw.NewLearner(ec.Candidates, mw.DefaultEta)
	costs := make([]float64, len(ec.Candidates))
	for i := range costs {
		costs[i] = r.Uniform(-0.5, 0.5)
	}
	updateNS := perCallNS(scaled(100_000), func(int) { learner.Update(costs, 0) })

	optNS := perCallNS(scaled(20_000), func(int) { p, _ := auction.OptimalPrice(bids[:window]); probeSink += int(p) })

	ar := timeseries.ARConfig{AR: 0.9, Sigma: 0.01, Mean: 100, Floor: 1, N: window}
	var vals []float64
	genNS := perCallNS(scaled(4000), func(int) { vals, err = timeseries.GenerateValuations(ar, r) })
	if err != nil {
		return nil, err
	}
	stream := timeseries.TruthfulStream(vals)
	simCfg := ec
	simCfg.DisableWaitPeriods = true
	replayNS := perCallNS(scaled(2000), func(i int) {
		simCfg.Seed = cfg.Seed + uint64(i)
		res := sim.Replay(sim.EnginePricer{E: core.MustNew(simCfg)}, stream, true)
		probeSink += res.Bids
	})

	_, took, err := simRound(experiments.Options{Series: simSeries(cfg.Seconds), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return []Metric{
		{"core.submit_bid_ns", submitNS, "ns"},
		{"core.epoch_close_us", stats.Median(closes), "us"},
		{"core.compute_wait_us", waitUS, "us"},
		{"mw.update_ns", updateNS, "ns"},
		{"auction.optimal_price_ns", optNS, "ns"},
		{"timeseries.generate_ns_per_point", genNS / float64(ar.N), "ns"},
		{"sim.replay_bids_per_s", float64(len(stream)) / (replayNS / 1e9), "1/s"},
		{"experiments.fig3b_s", took[0].Seconds(), "s"},
		{"experiments.fig4b_s", took[1].Seconds(), "s"},
		{"experiments.fig5a_s", took[2].Seconds(), "s"},
	}, nil
}

// ladderAndProbes is the part of a traced run every workload shares:
// the ladder, the probes, and writing the span file.
func ladderAndProbes(cfg Config, rep *Report, rec *spanRecorder) error {
	l, err := newLadder(cfg)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer l.close()
	l.run(rec)
	l.spans(rec)
	rep.PerLayer = append(rep.PerLayer, l.metrics()...)
	if l.mismatches > 0 {
		rep.Correct = false
	}
	rep.Checks = append(rep.Checks, fmt.Sprintf("%s: ladder twins disagreed on %d of %d ops", verdict(l.mismatches == 0), l.mismatches, len(l.p.workers[0])))

	for _, s := range serverStages {
		rep.PerLayer = append(rep.PerLayer, Metric{"obs.stage_" + s.metric + "_p50_us", stageP50US(l.wire.tel, s.stage), "us"})
	}

	// Bids the twins have not seen: the same walk, continued past the
	// ladder's ops.
	n := len(l.p.workers[0])
	extra := max(64, int(cfg.Seconds*1250))
	fresh := newPlan(cfg.Seed, len(l.p.buyers), 1, n+extra, 0).workers[0][n:]

	steps := []func() ([]Metric, error){
		func() ([]Metric, error) { return probeMarket(l), nil },
		func() ([]Metric, error) { return probeCodec(cfg, l) },
		func() ([]Metric, error) { return probeTransports(l, fresh) },
		func() ([]Metric, error) { return probeStore(l) },
		func() ([]Metric, error) { return probeDurable(cfg) },
		func() ([]Metric, error) { return probePaper(cfg) },
	}
	for _, step := range steps {
		ms, err := step()
		if err != nil {
			return err
		}
		rep.PerLayer = append(rep.PerLayer, ms...)
	}
	sort.SliceStable(rep.PerLayer, func(i, j int) bool { return rep.PerLayer[i].Name < rep.PerLayer[j].Name })
	if i := slices.IndexFunc(rep.PerLayer, func(m Metric) bool { return math.IsNaN(m.Value) || math.IsInf(m.Value, 0) }); i >= 0 {
		return fmt.Errorf("per-layer metric %s is %v", rep.PerLayer[i].Name, rep.PerLayer[i].Value)
	}
	rep.SpanFile = cfg.spanFile
	return rec.write(rep.SpanFile)
}

// serverStages are the stages of the wire server's own
// shield_stage_seconds family that the wire twin exercises, and the
// metric name each is reported under. The fsync stage comes from the
// durable probe: no twin fsyncs.
var serverStages = []struct{ stage, metric string }{
	{"wire.read", "wire_read"},
	{"decode", "decode"},
	{"group_commit.queue_wait", "queue_wait"},
	{"group_commit.append", "append"},
	{"apply", "apply"},
	{"publish", "publish"},
	{"ack.flush", "ack_flush"},
}
