package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
)

// Follower defaults.
const (
	DefaultMaxLag     = 5 * time.Second
	DefaultBackoffMin = 50 * time.Millisecond
	DefaultBackoffMax = 2 * time.Second
)

// errDiverged marks a fatal replication failure: a replicated command
// the local market refused. The follower stops streaming — retrying
// would reapply history onto provably wrong state.
var errDiverged = errors.New("replica: follower diverged")

// Config configures a Follower.
type Config struct {
	// Dial opens a stream to the leader's wire listener. Required.
	// Production followers dial TCP; tests hand out net.Pipe ends.
	Dial func() (net.Conn, error)
	// Name labels log lines and errors (optional).
	Name string
	// MaxLag bounds staleness for readiness: a follower further behind
	// than this (by time) reports unready. Default DefaultMaxLag.
	MaxLag time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff after a lost
	// leader. Defaults DefaultBackoffMin/DefaultBackoffMax.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Dir, when set, gives the follower a local segmented store: every
	// applied record is persisted there (snapshot catch-ups reseed it),
	// so a cold restart recovers the market from local disk and rejoins
	// the stream at its own durable seq instead of re-downloading a
	// snapshot. Empty means in-memory only, the pre-store behaviour.
	Dir string
	// Store tunes the local store when Dir is set (zero values take the
	// journal package defaults).
	Store journal.StoreConfig
	// Telemetry, when set, registers the shield_replica_* gauge
	// families on its registry. Each follower needs its own registry
	// (families refuse double registration by design).
	Telemetry *obs.Telemetry
}

// Follower replicates a leader's market: it dials, subscribes from its
// last applied sequence number, restores a snapshot when the leader
// sends one, applies every record through the same deterministic
// command core, and reconnects with exponential backoff when the
// stream drops. All read views are served from the local market;
// Staleness and Ready surface how far behind the leader they are.
type Follower struct {
	cfg Config

	mu          sync.Mutex
	r           *journal.Replayer // nil until the first snapshot lands
	applied     int64             // newest applied journal seq
	leader      int64             // newest leader seq seen (records + heartbeats)
	lastAdvance time.Time         // last time applied advanced or was proven current
	connected   bool
	nc          net.Conn // current transport, for Kill/Close interrupts
	diverged    error    // sticky fatal apply failure
	lastErr     error    // why the newest stream ended, for Ready
	closed      bool

	// rs is the local segmented store when Config.Dir is set. A
	// persistence failure is sticky (persistErr): the follower keeps
	// serving and replicating in memory, but stops appending — a
	// half-written local chain must not masquerade as durable. Only the
	// apply loop writes either (rs before it starts), so it reads them
	// without mu.
	rs         *journal.ReplicaStore
	persistErr error

	// Test hooks (the mutation canaries): dropSeq makes the follower
	// acknowledge one seq without applying it — the snapshot
	// differential must catch the divergence; stalled freezes the apply
	// loop so the lag gate must trip.
	dropSeq int64
	stalled bool

	stop chan struct{}
	done chan struct{}
}

// Start launches a follower replicating through cfg.Dial. It returns
// immediately; catch-up happens on the follower's own goroutine and
// Ready reports unready until the first catch-up completes.
func Start(cfg Config) (*Follower, error) {
	if cfg.Dial == nil {
		return nil, errors.New("replica: Config.Dial is required")
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = DefaultMaxLag
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = DefaultBackoffMin
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = DefaultBackoffMax
	}
	f := &Follower{
		cfg:         cfg,
		lastAdvance: time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if cfg.Dir != "" {
		var opts []journal.Option
		if cfg.Telemetry != nil {
			opts = append(opts, journal.WithTelemetry(cfg.Telemetry))
		}
		rs, r, lastSeq, err := journal.OpenReplicaStore(cfg.Dir, cfg.Store, opts...)
		if err != nil {
			return nil, fmt.Errorf("replica: opening local store %s: %w", cfg.Dir, err)
		}
		f.rs = rs
		if r != nil {
			// Cold restart: serve the locally recovered state right away
			// and rejoin the stream from the local durable seq.
			f.r = r
			f.applied = lastSeq
			f.leader = lastSeq
		}
	}
	if cfg.Telemetry != nil {
		f.register(cfg.Telemetry.Registry)
	}
	go f.run()
	return f, nil
}

// run is the follower's lifecycle: stream until the connection drops,
// back off, redial — forever, until Close or divergence.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.BackoffMin
	for {
		err := f.stream()
		f.mu.Lock()
		f.lastErr = err
		f.mu.Unlock()
		if f.isClosed() || errors.Is(err, errDiverged) {
			return
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, f.cfg.BackoffMax)
	}
}

// stream runs one connection's lifetime: dial, subscribe from the
// current applied seq, install a snapshot if the leader sent one, then
// apply records until the stream ends.
func (f *Follower) stream() error {
	nc, err := f.cfg.Dial()
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		nc.Close()
		return errors.New("replica: closed")
	}
	f.nc = nc
	after := f.applied
	f.mu.Unlock()
	defer func() {
		nc.Close()
		f.mu.Lock()
		f.connected = false
		if f.nc == nc {
			f.nc = nil
		}
		f.mu.Unlock()
	}()

	conn, err := wire.NewConn(nc)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	st, err := conn.OpenReplication(ctx, after)
	cancel()
	if err != nil {
		return err
	}

	if st.Snapshot != nil {
		r, err := f.reseed(st.Snapshot, st.StartSeq)
		if err != nil {
			return fmt.Errorf("replica: restoring leader snapshot: %w", err)
		}
		f.mu.Lock()
		f.r, f.applied, f.lastAdvance = r, st.StartSeq, time.Now()
		f.mu.Unlock()
	} else if st.StartSeq != after {
		return fmt.Errorf("replica: tail catch-up from seq %d, subscribed at %d", st.StartSeq, after)
	}
	f.mu.Lock()
	hasState := f.r != nil
	f.leader = max(f.leader, st.StartSeq)
	f.connected = true
	f.mu.Unlock()
	if !hasState {
		return errors.New("replica: leader offered tail catch-up to a stateless follower")
	}

	for {
		fr, err := st.Next(context.Background())
		if err != nil {
			return err
		}
		if fr.Heartbeat {
			f.observeLeader(fr.Seq)
			continue
		}
		if err := f.applyRecord(fr); err != nil {
			return err
		}
	}
}

// reseed builds the follower's market from a leader snapshot's
// canonical bytes, decoded once. With a local store it then runs
// ReplicaStore.Reset, which wipes the old chain and lands the bytes as
// received as a durable checkpoint; a store failure leaves the market
// purely in memory, with the sticky persistErr recording why local
// durability is gone.
func (f *Follower) reseed(canonical []byte, seq int64) (*journal.Replayer, error) {
	r, err := journal.NewReplayer(canonical)
	if err != nil {
		return nil, err
	}
	if f.rs != nil && f.persistErr == nil {
		if err := f.rs.Reset(canonical, seq, r); err != nil {
			f.mu.Lock()
			f.persistErr = fmt.Errorf("replica: local store reseed: %w", err)
			f.mu.Unlock()
		}
	}
	return r, nil
}

// persist appends one applied record to the local store, if one is
// attached and still healthy. Failures are sticky but non-fatal: the
// follower keeps serving from memory.
func (f *Follower) persist(fr wire.RepFrame) {
	if f.rs == nil || f.persistErr != nil {
		return
	}
	if err := f.rs.Append(fr.Seq, fr.Payload); err != nil {
		f.mu.Lock()
		f.persistErr = fmt.Errorf("replica: local store append seq %d: %w", fr.Seq, err)
		f.mu.Unlock()
	}
}

// applyRecord applies one replicated record's bytes as recovery applies
// them (journal.Replayer). A body that does not decode changes nothing
// and ends the stream, as a malformed frame does; any other refusal is
// divergence — sticky and fatal, surfaced through Ready.
func (f *Follower) applyRecord(fr wire.RepFrame) error {
	// The stall canary: freeze here (applied stops advancing, lag
	// grows) until released or closed.
	for f.isStalled() {
		if f.isClosed() {
			return errors.New("replica: closed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	f.mu.Lock()
	r := f.r
	drop := f.dropSeq == fr.Seq
	if drop {
		f.dropSeq = 0
	}
	f.mu.Unlock()

	if !drop {
		if evs, err := r.ApplyRecord(fr.Seq, fr.Payload); err != nil {
			if len(evs) == 0 && (errors.Is(err, command.ErrMalformed) || errors.Is(err, command.ErrUnknownOp)) {
				return fmt.Errorf("%w: %v", wire.ErrReplicaPayload, err)
			}
			f.mu.Lock()
			f.diverged = fmt.Errorf("%w: seq %d (opcode %d): %v", errDiverged, fr.Seq, fr.Payload[0], err)
			err = f.diverged
			f.mu.Unlock()
			return err
		}
	}
	// Persist even a canary-dropped record: the local chain mirrors the
	// leader's log, not the (possibly sabotaged) serving state, and a
	// skipped seq would break chain contiguity for every later append.
	f.persist(fr)

	f.mu.Lock()
	f.applied, f.leader, f.lastAdvance = fr.Seq, max(f.leader, fr.Seq), time.Now()
	f.mu.Unlock()
	return nil
}

// observeLeader folds a heartbeat's leader seq into the staleness
// bookkeeping. A heartbeat proving the follower current refreshes
// lastAdvance: "no news" is only staleness when there is news.
func (f *Follower) observeLeader(seq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leader = max(f.leader, seq)
	if f.applied >= f.leader {
		f.lastAdvance = time.Now()
	}
}

// Market returns the follower's local market for read views — nil
// until the first snapshot catch-up completes.
func (f *Follower) Market() *market.Market {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.r == nil {
		return nil
	}
	return f.r.Market
}

// Applied returns the newest journal sequence number the follower has
// applied.
func (f *Follower) Applied() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// AwaitConverged waits up to within for the follower to apply leader's
// newest seq, then checks that its canonical bytes are the leader's. A
// follower that skipped, duplicated or misapplied one replicated command
// fails the comparison; one that stopped applying fails the wait. leader
// must be quiescent.
func (f *Follower) AwaitConverged(leader *journal.Market, within time.Duration) error {
	want := leader.LastSeq()
	for deadline := time.Now().Add(within); f.Applied() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			applied, observed, lag, connected := f.Staleness()
			return fmt.Errorf("never converged: replication lag gate tripped: applied %d < leader %d after %s (observed leader %d, lag %.2fs, connected %v)",
				applied, want, within, observed, lag, connected)
		}
	}
	fm := f.Market()
	if fm == nil {
		return fmt.Errorf("converged to seq %d with no state", want)
	}
	if !bytes.Equal(fm.Canonical(), leader.Canonical()) {
		return fmt.Errorf("snapshot diverges from leader at seq %d: %s", want, fm.Snapshot().Diff(leader.Snapshot()))
	}
	return nil
}

// Staleness reports the follower's replication position: applied and
// leader sequence numbers, lag in seconds, and whether a stream is
// currently established. Lag is the time since the follower last
// proved itself current — it advanced past a record, or a heartbeat
// confirmed applied >= leader. On a healthy stream it oscillates
// between 0 and the leader's heartbeat interval; on a stalled,
// disconnected, or diverged follower it grows without bound until the
// next catch-up. Deliberately, the follower's own belief about the
// leader's seq is not trusted for currency: a consumer that stopped
// reading the stream also stopped learning how far behind it is.
func (f *Follower) Staleness() (applied, leader int64, lagSeconds float64, connected bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied, f.leader, time.Since(f.lastAdvance).Seconds(), f.connected
}

// Ready implements the readiness contract (/readyz on a replica):
// non-nil while the follower has no state yet, has diverged, or is
// staler than Config.MaxLag.
func (f *Follower) Ready() error {
	f.mu.Lock()
	diverged, lastErr := f.diverged, f.lastErr
	hasState := f.r != nil
	f.mu.Unlock()
	if diverged != nil {
		return diverged
	}
	if !hasState && lastErr != nil {
		return fmt.Errorf("replica: no state yet (first catch-up pending; last attempt: %v)", lastErr)
	}
	if !hasState {
		return errors.New("replica: no state yet (first catch-up pending)")
	}
	if _, _, lag, _ := f.Staleness(); lag > f.cfg.MaxLag.Seconds() {
		return fmt.Errorf("replica: lag %.2fs exceeds bound %s", lag, f.cfg.MaxLag)
	}
	return nil
}

// PersistErr reports the sticky local-store failure, nil while local
// persistence (if configured) is healthy. A failed store does not
// unready the follower — it keeps serving from memory — but operators
// see the fault here and through the store's own Err.
func (f *Follower) PersistErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.persistErr != nil {
		return f.persistErr
	}
	if f.rs != nil {
		return f.rs.Err()
	}
	return nil
}

// Kill drops the follower's current connection, simulating a leader
// restart or network fault; the run loop redials with backoff and
// catches up from its applied seq (the torture harness's mid-stream
// kill). State is retained — use a fresh Start for a cold restart.
func (f *Follower) Kill() {
	f.mu.Lock()
	nc := f.nc
	f.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// Close permanently stops the follower and waits for its goroutine to
// exit. The local market, if any, stays readable.
func (f *Follower) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return
	}
	f.closed = true
	nc := f.nc
	f.mu.Unlock()
	close(f.stop)
	if nc != nil {
		nc.Close()
	}
	<-f.done
	if f.rs != nil {
		f.rs.Close()
	}
}

func (f *Follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *Follower) isStalled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalled
}

// TestDropSeq makes the follower acknowledge seq without applying it —
// the replication mutation canary. The snapshot differential must
// catch the resulting divergence; nothing else will, by design.
func (f *Follower) TestDropSeq(seq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropSeq = seq
}

// TestStall freezes the apply loop (the lag-gate canary); TestResume
// releases it.
func (f *Follower) TestStall() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stalled = true
}

// TestResume releases a TestStall freeze.
func (f *Follower) TestResume() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stalled = false
}

// register exposes the follower's replication position as scrape-time
// gauges: applied/leader seq, lag in records and seconds, and stream
// connectedness.
func (f *Follower) register(r *obs.Registry) {
	gauge := func(name, help string, value func(applied, leader int64, lag float64, connected bool) float64) {
		r.Collect(name, help, obs.KindGauge, func(emit func(float64, ...string)) { emit(value(f.Staleness())) })
	}
	gauge("shield_replica_applied_seq", "Newest journal sequence number this replica has applied.",
		func(applied, _ int64, _ float64, _ bool) float64 { return float64(applied) })
	gauge("shield_replica_leader_seq", "Newest leader sequence number this replica has observed.",
		func(_, leader int64, _ float64, _ bool) float64 { return float64(leader) })
	gauge("shield_replica_lag_records", "Records the replica is behind the leader (observed leader seq minus applied seq).",
		func(applied, leader int64, _ float64, _ bool) float64 { return float64(max(leader-applied, 0)) })
	gauge("shield_replica_lag_seconds", "Replication staleness: 0 while connected and current, else time since the replica last advanced.",
		func(_, _ int64, lag float64, _ bool) float64 { return lag })
	gauge("shield_replica_connected", "Whether a replication stream to the leader is established (1) or down (0).",
		func(_, _ int64, _ float64, connected bool) float64 {
			if connected {
				return 1
			}
			return 0
		})
}
