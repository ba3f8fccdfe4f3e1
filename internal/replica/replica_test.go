package replica

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/wire"
)

func testConfig() market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 4,
			MinBid:        1,
		},
		Seed: 7,
	}
}

// leaderRig is a journaled leader market with a replication feed and a
// wire server followers can dial over net.Pipe.
type leaderRig struct {
	jm   *journal.Market
	feed *Feed
	ws   *wire.Server
}

// newLeaderRig's store never checkpoints, so a snapshot catch-up takes
// the feed's other branch: the live market at a committed seq
// (journal.Market.CommittedCut) rather than a checkpoint file.
func newLeaderRig(t *testing.T, ringMax int, opts ...journal.Option) *leaderRig {
	return leaderRigOver(t, journal.StoreConfig{CheckpointEvery: -1}, ringMax, opts...)
}

func leaderRigOver(t *testing.T, sc journal.StoreConfig, ringMax int, opts ...journal.Option) *leaderRig {
	t.Helper()
	jm, _, err := journal.OpenStore(testConfig(), t.TempDir(), sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })

	// Some pre-feed history, so followers must catch up from a snapshot
	// that is not just genesis.
	if err := jm.RegisterSeller("s1"); err != nil {
		t.Fatal(err)
	}
	if err := jm.UploadDataset("s1", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBuyer("b0"); err != nil {
		t.Fatal(err)
	}

	feed, err := NewFeed(jm, ringMax)
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(jm).WithReplication(feed).WithHeartbeatInterval(10 * time.Millisecond)
	return &leaderRig{jm: jm, feed: feed, ws: ws}
}

// dial hands a follower one net.Pipe end, serving the other.
func (r *leaderRig) dial() (net.Conn, error) {
	srv, cli := net.Pipe()
	go func() { _ = r.ws.ServeConn(srv) }()
	return cli, nil
}

// churn drives n mutating ops through the leader.
func (r *leaderRig) churn(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		buyer := market.BuyerID(fmt.Sprintf("b%d", i%3))
		if _, err := r.jm.SubmitBid(buyer, "d1", float64(20+i%50)); err != nil {
			// Shield rejections (wait periods) are fine; journal errors
			// are not.
			var wantNil error
			if errors.Is(err, journal.ErrClosed) {
				t.Fatalf("bid %d: %v", i, err)
			}
			_ = wantNil
		}
		if i%10 == 9 {
			if _, err := r.jm.Tick(); err != nil {
				t.Fatalf("tick %d: %v", i, err)
			}
		}
	}
}

// waitConverged blocks until the follower has applied the leader's
// newest seq, or fails the test.
func waitConverged(t *testing.T, f *Follower, feed *Feed, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		want := feed.LeaderSeq()
		if got := f.Applied(); got >= want {
			return
		}
		if time.Now().After(deadline) {
			applied, leader, lag, connected := f.Staleness()
			t.Fatalf("follower stuck: applied %d, leader %d (feed %d), lag %.2fs, connected %v",
				applied, leader, want, lag, connected)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mustMatchLeader pins the follower's snapshot byte-identical to the
// leader's.
func mustMatchLeader(t *testing.T, r *leaderRig, f *Follower) {
	t.Helper()
	if err := f.AwaitConverged(r.jm, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitConverged: a follower applying a leader's churn converges
// on it; one that skipped a replicated command (TestDropSeq) is named as
// diverged, and one whose apply loop froze (TestStall) trips the lag
// gate. Run it under -race: it polls Applied while the follower applies.
func TestAwaitConverged(t *testing.T) {
	for _, tc := range []struct {
		name   string
		within time.Duration
		hook   func(f *Follower, next int64)
		want   string
	}{
		{"converges", 5 * time.Second, nil, ""},
		{"dropped seq", 5 * time.Second, func(f *Follower, next int64) { f.TestDropSeq(next) }, "snapshot diverges from leader at seq "},
		{"stalled", 100 * time.Millisecond, func(f *Follower, _ int64) { f.TestStall() }, "never converged: replication lag gate tripped: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newLeaderRig(t, 0)
			f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			defer f.TestResume()
			if err := f.AwaitConverged(r.jm, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.hook != nil {
				tc.hook(f, r.jm.LastSeq()+1)
			}
			r.churn(t, 50)
			err = f.AwaitConverged(r.jm, tc.within)
			if tc.want == "" && err != nil {
				t.Fatal(err)
			}
			if tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)) {
				t.Fatalf("AwaitConverged: %v, want an error beginning %q", err, tc.want)
			}
		})
	}
}

func TestFollowerSnapshotCatchUpThenStream(t *testing.T) {
	r := newLeaderRig(t, 0)
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Catch-up from snapshot (fresh follower, history predates any ring).
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
	// With no checkpoint on disk that snapshot was the live market's,
	// taken at the leader's own seq.
	sub, err := r.feed.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	if ck := r.jm.Store().LastCheckpoint(); ck != 0 || sub.Snapshot == nil || sub.StartSeq != r.feed.LeaderSeq() {
		t.Fatalf("catch-up snapshot at seq %d (leader at %d, checkpoint at %d): not the live market's", sub.StartSeq, r.feed.LeaderSeq(), ck)
	}
	if err := f.Ready(); err != nil {
		t.Fatalf("converged follower unready: %v", err)
	}

	// Live streaming.
	r.churn(t, 200)
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)

	applied, leader, lag, connected := f.Staleness()
	if applied != leader || !connected {
		t.Fatalf("staleness after convergence: applied %d leader %d connected %v", applied, leader, connected)
	}
	if lag > 1.0 {
		t.Fatalf("lag %.2fs on a connected, current follower", lag)
	}
}

// TestFollowerCatchesUpOverTCP: a follower dialing the leader over
// loopback TCP catches up from a snapshot frame bigger than the 4 KiB
// buffers its connection opens with, lands the leader's bytes, then
// streams on the 64 KiB buffers the connection switches to.
func TestFollowerCatchesUpOverTCP(t *testing.T) {
	r := newLeaderRig(t, 0)
	for i := range 600 {
		if err := r.jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("buyer-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := r.feed.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	if n := len(sub.Snapshot); n <= 4<<10 {
		t.Fatalf("the catch-up snapshot is %d bytes: not over the 4 KiB buffer", n)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = r.ws.Serve(l) }()
	f, err := Start(Config{
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
	r.churn(t, 200)
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
}

func TestFollowerKillReconnectsAndConverges(t *testing.T) {
	r := newLeaderRig(t, 0)
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)

	// Kill mid-stream; the leader keeps committing while the follower
	// is down, so the reconnect must catch up (tail mode: the gap fits
	// the default ring).
	r.churn(t, 50)
	f.Kill()
	r.churn(t, 100)
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
}

func TestFollowerSnapshotCatchUpAfterRingEviction(t *testing.T) {
	// A tiny ring forces the reconnect gap past the tail window, so the
	// feed must serve a fresh snapshot to a non-empty follower.
	r := newLeaderRig(t, 8)
	f, err := Start(Config{Dial: r.dial, BackoffMin: 200 * time.Millisecond, BackoffMax: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)

	f.Kill()
	r.churn(t, 200) // far beyond 2*8 ring records while the follower is down
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
}

func TestFollowerGroupCommitLeader(t *testing.T) {
	// The commit hook's ordering contract is subtler when groups grow
	// under a commit window; prove convergence there too.
	r := newLeaderRig(t, 0, journal.WithGroupCommit(200*time.Microsecond))
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		r.churn(t, 150)
	}()
	<-done
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
}

func TestFeedRefusesFollowerAhead(t *testing.T) {
	r := newLeaderRig(t, 0)
	_, err := r.feed.Subscribe(r.feed.LeaderSeq() + 10)
	if !errors.Is(err, ErrFollowerAhead) {
		t.Fatalf("got %v, want ErrFollowerAhead", err)
	}
}

func TestFollowerDropCanaryDiverges(t *testing.T) {
	// The mutation canary's mechanism: a follower that skips one
	// replicated command must produce a snapshot that is NOT
	// byte-identical to the leader's, even though its seq converges.
	r := newLeaderRig(t, 0)
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)

	f.TestDropSeq(r.feed.LeaderSeq() + 1)
	r.churn(t, 50)
	waitConverged(t, f, r.feed, 5*time.Second)

	want, err := r.jm.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Market().Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		t.Fatal("dropped command left the snapshot byte-identical; the differential cannot catch skips")
	}
}

func TestFollowerStallTripsReadiness(t *testing.T) {
	r := newLeaderRig(t, 0)
	f, err := Start(Config{
		Dial:       r.dial,
		MaxLag:     30 * time.Millisecond,
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)

	f.TestStall()
	r.churn(t, 20)
	deadline := time.Now().Add(5 * time.Second)
	for f.Ready() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stalled follower never turned unready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.TestResume()
	waitConverged(t, f, r.feed, 5*time.Second)
	if err := f.Ready(); err != nil {
		t.Fatalf("resumed follower unready: %v", err)
	}
}
