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
	// Dir, when set, gives the follower a local segmented store: the
	// follower market's commit stage writes every applied record there
	// (snapshot catch-ups reseed it), so a cold restart recovers the
	// market from local disk and rejoins the stream at its own durable
	// seq instead of re-downloading a snapshot. Empty means in-memory only, the pre-store behaviour.
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
// sends one, applies every record through a journaled market's commit
// stage as the leader did, and reconnects with exponential backoff when
// the stream drops. All read views are served from the local market;
// Staleness and Ready surface how far behind the leader they are.
type Follower struct {
	cfg Config

	mu sync.Mutex
	// m is the served market, nil until the first snapshot lands: over
	// the local store when Config.Dir is set and the store is healthy,
	// else journaled to nowhere. Only the apply loop replaces it.
	m           *journal.Market
	applied     int64     // newest applied journal seq
	leader      int64     // newest leader seq seen (records + heartbeats)
	lastAdvance time.Time // last time applied advanced or was proven current
	connected   bool
	nc          net.Conn // current transport, for Kill/Close interrupts
	diverged    error    // sticky fatal apply failure
	lastErr     error    // why the newest stream ended, for Ready
	closed      bool
	// persistErr is a reseed's sticky local-store failure: from then on
	// the follower serves and replicates in memory — a half-written
	// local chain must not masquerade as durable. A failure of the store
	// under m stays in its Store.Err (PersistErr reads both).
	persistErr error

	// Test hooks (the mutation canaries): dropSeq makes the follower
	// journal one seq without applying it — the snapshot differential
	// must catch the divergence; stalled freezes the apply loop so the
	// lag gate must trip.
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
		m, err := journal.OpenFollower(cfg.Dir, cfg.Store, opts...)
		if err != nil {
			return nil, fmt.Errorf("replica: opening local store %s: %w", cfg.Dir, err)
		}
		if m != nil {
			// Cold restart: serve the locally recovered state right away
			// and rejoin the stream from the local durable seq.
			f.m, f.applied, f.leader = m, m.LastSeq(), m.LastSeq()
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
		m, err := f.reseed(st.Snapshot, st.StartSeq)
		if err != nil {
			return fmt.Errorf("replica: restoring leader snapshot: %w", err)
		}
		f.mu.Lock()
		f.m, f.applied, f.lastAdvance = m, st.StartSeq, time.Now()
		f.mu.Unlock()
	} else if st.StartSeq != after {
		return fmt.Errorf("replica: tail catch-up from seq %d, subscribed at %d", st.StartSeq, after)
	}
	f.mu.Lock()
	hasState := f.m != nil
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
// canonical bytes at seq. They are restored in memory first, so a
// snapshot this build cannot read changes nothing. With a healthy local
// store that market then moves onto the store, reseeded with those
// bytes as received, in place of the old one (journal.ReseedFollower);
// a store that cannot take them leaves the follower in memory, with the
// sticky persistErr saying why.
func (f *Follower) reseed(canonical []byte, seq int64) (*journal.Market, error) {
	m, err := journal.RestoreFollower(canonical, seq)
	if err != nil || f.cfg.Dir == "" {
		return m, err
	}
	old := f.m // the apply loop, which runs this, is m's only writer
	perr := f.PersistErr()
	if perr == nil {
		sm, err := journal.ReseedFollower(old, m, f.cfg.Dir, f.cfg.Store, canonical)
		if err == nil {
			return sm, nil
		}
		perr = fmt.Errorf("replica: local store reseed: %w", err)
	} else if old != nil {
		old.Close() // its store failed, or it has none
	}
	f.mu.Lock()
	f.persistErr = perr
	f.mu.Unlock()
	return m, nil
}

// applyRecord applies one replicated record's bytes through the
// market's commit stage, which writes it to the local store, if any,
// exactly as the leader's stage did. A body that does not decode changes
// nothing and ends the stream, as a malformed frame does; any other
// refusal — of the command, or of any entry of a bid_batch, which holds
// only entries that applied on the leader — writes nothing and is
// divergence, sticky and fatal, surfaced through Ready.
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
	m := f.m
	drop := f.dropSeq == fr.Seq
	if drop {
		f.dropSeq = 0
	}
	f.mu.Unlock()

	var err error
	if drop {
		// Journal even a canary-dropped record: the seq converges and
		// the local chain mirrors the leader's log, so only the snapshot
		// differential can tell.
		err = m.TestLogWithoutApplying(fr.Payload)
	} else if _, err = m.ApplyEncodedCtx(context.Background(), fr.Payload, nil); errors.Is(err, command.ErrMalformed) || errors.Is(err, command.ErrUnknownOp) {
		return fmt.Errorf("%w: %v", wire.ErrReplicaPayload, err)
	}
	if err != nil {
		f.mu.Lock()
		f.diverged = fmt.Errorf("%w: seq %d (opcode %d): %v", errDiverged, fr.Seq, fr.Payload[0], err)
		err = f.diverged
		f.mu.Unlock()
		return err
	}

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
	if f.m == nil {
		return nil
	}
	return f.m.Market
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
	hasState := f.m != nil
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
// persistence (if configured) is healthy: a reseed's, or the one the
// store under the served market keeps in its Store.Err. A failed store
// does not unready the follower — it keeps serving from memory — but
// operators see the fault here.
func (f *Follower) PersistErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.persistErr != nil || f.m == nil || f.m.Store() == nil {
		return f.persistErr
	}
	if err := f.m.Store().Err(); err != nil {
		return fmt.Errorf("replica: local store: %w", err)
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
	f.mu.Lock()
	m := f.m
	f.mu.Unlock()
	if m != nil {
		m.Close()
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

// TestDropSeq makes the follower journal seq without applying it — the
// replication mutation canary. The snapshot differential must
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
// gauges: applied/leader seq, lag in records and seconds, stream
// connectedness, and whether its local store has failed.
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
	r.Collect("shield_replica_store_failed", "Whether the replica's local store has failed (1), leaving it serving from memory, or not (0).",
		obs.KindGauge, func(emit func(float64, ...string)) {
			if f.PersistErr() != nil {
				emit(1)
				return
			}
			emit(0)
		})
}
