package torture

import (
	"net"
	"time"

	"github.com/datamarket/shield/internal/journal"
	replication "github.com/datamarket/shield/internal/replica"
	"github.com/datamarket/shield/internal/wire"
)

// followerTwin is the replication twin of a torture run: a
// replica.Follower streaming the lead replica's committed command log
// over the real wire protocol (net.Pipe transport), killed and
// restarted at seeded points mid-stream. At every checkpoint it must
// converge to the leader's newest committed seq within a bounded wait
// (the lag gate) and its canonical snapshot must be byte-identical to
// the leader's (the divergence gate) — a follower that skips,
// duplicates, or misapplies one replicated command fails one of the
// two, with the usual shieldstorm repro line.
type followerTwin struct {
	feed *replication.Feed
	f    *replication.Follower
	rcfg replication.Config
	// kills counts injected chaos events; even events drop the
	// connection (state retained, tail catch-up), odd events
	// cold-restart the follower from nothing (snapshot catch-up).
	kills int
}

// newFollowerTwin attaches a replication feed with a ring of ringMax
// records (0 for the default) to the lead replica and boots the
// follower. Must run before the first op so the feed's commit hook
// never misses a record.
func newFollowerTwin(cfg Config, leader *journal.Market, ringMax int) (*followerTwin, error) {
	feed, err := replication.NewFeed(leader, ringMax)
	if err != nil {
		return nil, err
	}
	rcfg := pipeFollower("torture-follower", leader, feed)
	f, err := replication.Start(rcfg)
	if err != nil {
		return nil, err
	}
	if cfg.canaryFollowerDrop > 0 {
		f.TestDropSeq(cfg.canaryFollowerDrop)
	}
	if cfg.canaryFollowerStall {
		f.TestStall()
	}
	return &followerTwin{feed: feed, f: f, rcfg: rcfg}, nil
}

// pipeFollower configures an in-process follower called name: each dial
// opens a net.Pipe to a wire server over leader that streams src, with
// a heartbeat and redial backoff short enough for checkpoint gates.
func pipeFollower(name string, leader *journal.Market, src wire.ReplicationSource) replication.Config {
	ws := wire.NewServer(leader).WithReplication(src).
		WithHeartbeatInterval(10 * time.Millisecond)
	return replication.Config{
		Dial: func() (net.Conn, error) {
			srv, cli := net.Pipe()
			go func() { _ = ws.ServeConn(srv) }()
			return cli, nil
		},
		Name:       name,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	}
}

// chaos injects one seeded kill: alternately a connection drop (the
// follower redials and tail-catches-up from its applied seq) and a cold
// restart (a fresh follower with no state, forcing snapshot catch-up).
func (t *followerTwin) chaos(logf func(string, ...any)) error {
	defer func() { t.kills++ }()
	if t.kills%2 == 0 {
		if logf != nil {
			logf("follower chaos %d: dropping replication connection", t.kills)
		}
		t.f.Kill()
		return nil
	}
	if logf != nil {
		logf("follower chaos %d: cold-restarting follower", t.kills)
	}
	t.f.Close()
	f, err := replication.Start(t.rcfg)
	if err != nil {
		return err
	}
	t.f = f
	return nil
}

func (t *followerTwin) close() {
	t.f.Close()
}

// check is the checkpoint gate for the replication twin: the lag gate
// and the divergence gate of replica.Follower.AwaitConverged. It returns
// "" on success and the failure reason otherwise. The leader must be
// quiescent.
func (t *followerTwin) check(leader *journal.Market, converge time.Duration) string {
	if err := t.f.AwaitConverged(leader, converge); err != nil {
		return "follower twin " + err.Error()
	}
	return ""
}

func (h *harness) checkFollower(opIdx int) *Failure {
	if h.twin == nil {
		return nil
	}
	if reason := h.twin.check(h.replicas[0].jm, h.cfg.followerConverge); reason != "" {
		return h.fail(opIdx, Op{Kind: OpTick}, "%s", reason)
	}
	return nil
}
