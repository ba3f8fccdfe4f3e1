package loadrig

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// Transports a scenario can drive.
const (
	TransportHTTP = "http"
	TransportWire = "wire"
	TransportBoth = "both" // clients split evenly across both listeners
)

// Scenario describes one load run against a Rig.
type Scenario struct {
	// Transport is "http", "wire", or "both".
	Transport string
	// Clients is the number of concurrent client connections (each a
	// worker with its own persona and RNG stream).
	Clients int
	// Rate is the open-loop offered load in operations per second,
	// across all clients.
	Rate float64
	// Ops is the total number of operations to schedule.
	Ops int
	// TickEvery advances the market period every N scheduled ops
	// (0 = never), so Time-Shield waits expire and buyers re-enter.
	TickEvery int
	// Seed derives every worker's RNG stream; a scenario replays
	// bit-identically from (Seed, Clients, Ops).
	Seed uint64
	// ReplicaFraction routes this fraction of scheduled ops to the rig's
	// read replicas as ClassReplica reads (carved out of the query
	// share, so bid volume is unchanged; at most 1 - bidFraction).
	// Requires RigConfig.Followers.
	ReplicaFraction float64
	// KillFollower drops follower 0's replication connection at the
	// schedule's midpoint; the follower must redial, catch up, and still
	// satisfy the replica.lag SLO clause.
	KillFollower bool
}

// Every scenario schedules bidFraction of its ops as bids and the rest as
// reads, and bounds each operation by opTimeout; a timed-out op counts
// as an error.
const (
	bidFraction = 0.8
	opTimeout   = 5 * time.Second
)

// job is one scheduled operation.
type job struct {
	due  time.Time
	kind string // ClassBid, ClassQuery, ClassTick
}

// Run drives the scenario against the rig and returns the measured
// report. The dispatcher paces jobs on the open-loop schedule into a
// queue deep enough to never block, so when workers fall behind the
// scheduled times age in the queue and the measured latency includes
// every queued microsecond (see the package comment on coordinated
// omission). Server-side histogram quantiles for the bid path are
// attached for cross-checking when the rig holds the server's registry.
func Run(rig *Rig, sc Scenario) (*Report, error) {
	if sc.Clients <= 0 || sc.Ops <= 0 {
		return nil, fmt.Errorf("loadrig: scenario needs positive Clients and Ops (got %d, %d)", sc.Clients, sc.Ops)
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.ReplicaFraction < 0 || sc.ReplicaFraction > 1-bidFraction {
		return nil, fmt.Errorf("loadrig: ReplicaFraction %v outside [0, %v]", sc.ReplicaFraction, 1-bidFraction)
	}
	if (sc.ReplicaFraction > 0 || sc.KillFollower) && len(rig.FollowerAddrs) == 0 {
		return nil, errors.New("loadrig: scenario drives replicas but the rig has no followers (set RigConfig.Followers)")
	}
	pacer, err := NewPacer(sc.Rate)
	if err != nil {
		return nil, err
	}

	// One HTTP transport sized to the client count, so every HTTP worker
	// keeps a persistent connection instead of churning through
	// http.DefaultClient's two idle slots per host. Its idle connections
	// close after the run: a server's graceful shutdown waits on a
	// connection that never sent a request.
	doer := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2*sc.Clients + 16,
		MaxIdleConnsPerHost: sc.Clients + 8,
	}}
	defer doer.CloseIdleConnections()
	clients, err := dialClients(rig, sc, doer)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	var replicaClients []client.Client
	if sc.ReplicaFraction > 0 {
		// One HTTP connection per worker to the followers, round-robin.
		targets := make([]string, sc.Clients)
		for i := range targets {
			targets[i] = rig.FollowerAddrs[i%len(rig.FollowerAddrs)]
		}
		if replicaClients, err = dialAll(targets, doer); err != nil {
			return nil, err
		}
	}
	defer closeAll(replicaClients)
	if err := warm(append(append([]client.Client(nil), clients...), replicaClients...)); err != nil {
		return nil, err
	}

	// The jobs queue holds the whole schedule so the dispatcher never
	// blocks on slow workers — blocking would silently convert the rig
	// to a closed loop.
	jobs := make(chan job, sc.Ops)
	root := rng.New(sc.Seed)
	dispatchRNG := root.Fork("dispatch")

	recs := make([]*recorder, sc.Clients)
	var wg sync.WaitGroup
	for i := 0; i < sc.Clients; i++ {
		recs[i] = &recorder{}
		w := &worker{
			cl:       clients[i],
			buyer:    rig.Buyers[i%len(rig.Buyers)],
			persona:  Personas[i%len(Personas)],
			rng:      root.Fork(fmt.Sprintf("worker-%d", i)),
			datasets: rig.Datasets,
			rec:      recs[i],
		}
		if len(replicaClients) > 0 {
			w.replica = replicaClients[i%len(replicaClients)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(jobs)
		}()
	}

	lagStop, lagResult := sampleReplicaLag(rig)
	killAt := -1
	if sc.KillFollower {
		killAt = sc.Ops / 2
	}

	start := time.Now()
	for i := 0; i < sc.Ops; i++ {
		if i == killAt {
			rig.KillFollower(0)
		}
		// One RNG draw per op keeps replays of replica-free scenarios
		// bit-identical to earlier versions of the rig; replica reads
		// carve their share out of the query band above bidFraction.
		draw := dispatchRNG.Float64()
		kind := ClassQuery
		switch {
		case sc.TickEvery > 0 && i > 0 && i%sc.TickEvery == 0:
			kind = ClassTick
		case draw < bidFraction:
			kind = ClassBid
		case draw < bidFraction+sc.ReplicaFraction:
			kind = ClassReplica
		}
		jobs <- job{due: pacer.Next(), kind: kind}
	}
	close(jobs)
	wg.Wait()
	duration := time.Since(start)
	close(lagStop)
	lag := <-lagResult

	rep := buildReport(recs, duration)
	if rig.Tel != nil { // a remote rig reads no server registry
		rep.ServerQuantiles = serverQuantiles(rig)
		rep.ServerStages = serverStages(rig)
	}
	rep.ReplicaMaxLag = lag.max
	rep.ReplicaLagSamples = lag.samples
	return rep, nil
}

// lagSample is the result of one run's replica-lag polling.
type lagSample struct {
	max     float64
	samples int
}

// sampleReplicaLag polls every follower's staleness on a 25ms cadence
// for the run's duration and reports the worst lag observed — the
// measurement behind the replica.lag SLO clause. The poll keeps running
// through follower kills, so reconnect-and-catch-up time is charged to
// the lag number a gate evaluates.
func sampleReplicaLag(rig *Rig) (chan<- struct{}, <-chan lagSample) {
	stop := make(chan struct{})
	result := make(chan lagSample, 1)
	go func() {
		var out lagSample
		defer func() { result <- out }()
		if len(rig.Followers) == 0 {
			return
		}
		poll := func() {
			for _, f := range rig.Followers {
				_, _, lag, _ := f.Staleness()
				if lag > out.max {
					out.max = lag
				}
				out.samples++
			}
		}
		poll() // at least one sample even for sub-tick runs
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				poll() // the closing sample covers the schedule's tail
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return stop, result
}

// dialClients opens the scenario's connections, split across transports
// for TransportBoth.
func dialClients(rig *Rig, sc Scenario, doer *http.Client) ([]client.Client, error) {
	httpCount := 0
	switch sc.Transport {
	case TransportHTTP:
		httpCount = sc.Clients
	case TransportWire:
	case TransportBoth:
		httpCount = sc.Clients / 2
	default:
		return nil, fmt.Errorf("loadrig: unknown transport %q (want http, wire, or both)", sc.Transport)
	}
	targets := make([]string, sc.Clients)
	for i := range targets {
		targets[i] = rig.WireAddr
		if i < httpCount {
			targets[i] = rig.HTTPAddr
		}
	}
	return dialAll(targets, doer)
}

// dialAll opens one client per target: an "http://" target on doer's
// connections, any other a wire address. Dialing serially at 1k+
// connections takes whole seconds; a bounded dial pool keeps startup off
// the measured clock. On any failure it closes what it opened.
func dialAll(targets []string, doer *http.Client) ([]client.Client, error) {
	clients := make([]client.Client, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	for i, target := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if strings.HasPrefix(target, "http") {
				clients[i], errs[i] = client.Dial(target, client.WithHTTPDoer(doer))
			} else {
				clients[i], errs[i] = client.DialWire(target)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll(clients)
		return nil, fmt.Errorf("loadrig: dialing %d clients: %w", len(targets), err)
	}
	return clients, nil
}

func closeAll(clients []client.Client) {
	for _, cl := range clients {
		if cl != nil {
			_ = cl.Close()
		}
	}
}

// warm pings every client before the schedule's clock starts. The HTTP
// transport connects lazily, so without this the first schedule slots
// pay the whole fleet's TCP setup and the startup transient reads as
// server tail latency in the report.
func warm(clients []client.Client) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl client.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			errs[i] = cl.Ping(ctx)
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("loadrig: warming %d clients: %w", len(clients), err)
	}
	return nil
}

// worker executes jobs on one connection, as one buyer, under one
// persona.
type worker struct {
	cl       client.Client
	replica  client.Client // read replica connection (nil without followers)
	buyer    market.BuyerID
	persona  Persona
	rng      *rng.RNG
	datasets []market.DatasetID
	rec      *recorder
}

func (w *worker) loop(jobs <-chan job) {
	for j := range jobs {
		w.execute(j)
	}
}

// execute runs one scheduled op and records its sample. Latency is
// measured from the job's scheduled send time, not from now: the gap
// between the two is exactly the queueing delay coordinated omission
// would hide.
func (w *worker) execute(j job) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	s := sample{class: j.kind}
	switch j.kind {
	case ClassBid:
		ds := w.datasets[w.rng.Intn(len(w.datasets))]
		d, err := w.cl.SubmitBid(ctx, w.buyer, ds, w.persona.Bid(w.rng))
		s.err, s.reject = classify(err)
		s.won = err == nil && d.Allocated
	case ClassTick:
		_, err := w.cl.Tick(ctx)
		s.err, s.reject = classify(err)
	case ClassReplica:
		err := w.queryOn(ctx, w.replica)
		s.err, s.reject = classify(err)
	default:
		err := w.queryOn(ctx, w.cl)
		s.err, s.reject = classify(err)
	}

	s.latency = time.Since(j.due)
	w.rec.record(s)
}

// queryOn issues one read op against cl — the leader connection for
// ClassQuery, a follower's read-only HTTP listener for ClassReplica —
// rotating deterministically through the read surface.
func (w *worker) queryOn(ctx context.Context, cl client.Client) error {
	ds := w.datasets[w.rng.Intn(len(w.datasets))]
	switch w.rng.Intn(4) {
	case 0:
		_, err := cl.Period(ctx)
		return err
	case 1:
		_, err := cl.Datasets(ctx)
		return err
	case 2:
		_, err := cl.WaitRemaining(ctx, w.buyer, ds)
		return err
	default:
		_, err := cl.SellerBalance(ctx, Seller)
		return err
	}
}

// classify buckets an op error: business rejections — Time-Shield
// waits, per-period bid limits, datasets the buyer already owns — are
// the market doing its job and must not trip an error-rate SLO;
// everything else (transport failures, timeouts, internal errors) is a
// real error.
func classify(err error) (isErr, isReject bool) {
	if err == nil {
		return false, false
	}
	var ae *apierr.APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case apierr.CodeBlockedUntil, apierr.CodeBidTooSoon, apierr.CodeAlreadyAcquired:
			return false, true
		}
	}
	return true, false
}

// serverQuantiles pulls the server-side latency estimates for the bid
// path from the rig's registry — the same histograms /metrics exports —
// so reports can cross-check client-measured percentiles against
// server-observed ones.
func serverQuantiles(rig *Rig) map[string]float64 {
	out := map[string]float64{}
	if h, ok := rig.Tel.Registry.FindHistogram("shield_http_request_seconds", "POST /v1/bids", "200"); ok {
		out[`shield_http_request_seconds{route="POST /v1/bids",status="200"} p99`] = h.Quantile(0.99)
		out[`shield_http_request_seconds{route="POST /v1/bids",status="200"} p50`] = h.Quantile(0.50)
	}
	if h, ok := rig.Tel.Registry.FindHistogram("shield_wire_request_seconds", "bid", "ok"); ok {
		out[`shield_wire_request_seconds{op="bid",status="ok"} p99`] = h.Quantile(0.99)
		out[`shield_wire_request_seconds{op="bid",status="ok"} p50`] = h.Quantile(0.50)
	}
	return out
}

// serverStages reads the write-path stage decomposition out of the
// rig's shield_stage_seconds family, one entry per StageClasses class
// the run exercised. This is the server's own answer to "where did the
// bid's latency go" — queue wait vs fsync vs apply — reported next to
// the client-observed percentiles and boundable by SLO clauses like
// bid.fsync.p99<2ms.
func serverStages(rig *Rig) map[string]StageStats {
	out := map[string]StageStats{}
	for class, stage := range StageClasses {
		h, ok := rig.Tel.Registry.FindHistogram("shield_stage_seconds", stage)
		if !ok || h.Count() == 0 {
			continue
		}
		out[class] = StageStats{
			Stage: stage,
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
	}
	return out
}
