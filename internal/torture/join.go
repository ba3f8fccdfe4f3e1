package torture

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/obs"
	replication "github.com/datamarket/shield/internal/replica"
	"github.com/datamarket/shield/internal/wire"
)

// The join-mid-storm half of the hot storm: a fresh follower subscribes
// while the storm's writers commit, from a checkpoint the feed's ring
// has moved past, so the feed reads the records after it from the
// leader's segments with no lock held and splices in from the ring what
// committed during the read. Every stream the joiner is sent must carry
// each record after its snapshot exactly once, in order — a gap or a
// repeat at the seam between the disk tail and the ring would only make
// the follower redial, so the source relays each stream through a check
// — and the joiner must end byte-identical to the leader.

// hotRing is the hot feed's ring, against a checkpoint cadence of at
// least 500 records: a joiner waits out 2*hotRing records past its
// checkpoint (the ring's longest reach back), and the ring still holds
// what commits while a catch-up scan reads.
const hotRing = 128

// seamCheck is the joiner's replication source: the feed, with each
// subscription's records relayed through a sequence check.
type seamCheck struct{ *joiner }

func (c seamCheck) Subscribe(afterSeq int64) (wire.Subscription, error) {
	sub, err := c.feed.Subscribe(afterSeq)
	if err != nil {
		return sub, err
	}
	// The relay's buffer is the size of the feed's: a joiner may fall
	// twice as far behind before the feed drops it, which changes
	// nothing this check looks at.
	in, out, stop := sub.Records, make(chan wire.RepRecord, cap(sub.Records)), make(chan struct{})
	go func() {
		defer close(out)
		next := sub.StartSeq + 1
		for rec := range in {
			if rec.Seq != next {
				gap := fmt.Sprintf("a stream from seq %d carried seq %d where %d belonged", sub.StartSeq, rec.Seq, next)
				c.gap.CompareAndSwap(nil, &gap)
			}
			next = rec.Seq + 1
			select {
			case out <- rec:
			case <-stop:
				return
			}
		}
	}()
	cancel := sub.Cancel
	sub.Records, sub.Cancel = out, func() { close(stop); cancel() }
	return sub, nil
}

func (c seamCheck) LeaderSeq() int64 { return c.feed.LeaderSeq() }

// joiner is the follower that joins mid-storm; f is nil until it has.
type joiner struct {
	feed    *replication.Feed
	tel     *obs.Telemetry         // the feed's: its catch-up scan counter
	gap     atomic.Pointer[string] // the first sequence break a stream showed
	f       atomic.Pointer[replication.Follower]
	started bool
	stop    chan struct{}
	done    chan error
}

func newJoiner(feed *replication.Feed) *joiner {
	j := &joiner{feed: feed, tel: obs.NewTelemetry(), stop: make(chan struct{}), done: make(chan error, 1)}
	feed.Instrument(j.tel)
	return j
}

// start forces a checkpoint, the joiner's snapshot, and returns; a
// goroutine boots the joining follower once the storm has committed
// 2*hotRing records past it.
func (j *joiner) start(leader *journal.Market) error {
	if err := leader.Store().Checkpoint(); err != nil {
		return err
	}
	from := leader.Store().LastCheckpoint()
	j.started = true
	go func() {
		for leader.LastSeq() < from+2*hotRing {
			select {
			case <-j.stop:
				j.done <- nil
				return
			case <-time.After(20 * time.Microsecond):
			}
		}
		ws := wire.NewServer(leader).WithReplication(seamCheck{j}).
			WithHeartbeatInterval(10 * time.Millisecond)
		f, err := replication.Start(replication.Config{
			Dial: func() (net.Conn, error) {
				srv, cli := net.Pipe()
				go func() { _ = ws.ServeConn(srv) }()
				return cli, nil
			},
			Name:       "torture-joiner",
			BackoffMin: time.Millisecond,
			BackoffMax: 20 * time.Millisecond,
		})
		j.f.Store(f)
		j.done <- err
	}()
	return nil
}

// check is the joiner's gate at a quiescent checkpoint, once it has
// joined: every stream it was sent gapless, converged on the leader's
// newest seq within converge, byte-identical to it, and caught up
// through a scan of the leader's segments.
func (j *joiner) check(leader *journal.Market, converge time.Duration) string {
	f := j.f.Load()
	if f == nil {
		return ""
	}
	want := j.feed.LeaderSeq()
	for deadline := time.Now().Add(converge); f.Applied() < want && j.gap.Load() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Sprintf("join-mid-storm: the joiner applied %d < leader %d after %s", f.Applied(), want, converge)
		}
	}
	if gap := j.gap.Load(); gap != nil {
		return "join-mid-storm: the joiner's catch-up broke at the disk-tail/ring seam: " + *gap
	}
	if fm := f.Market(); fm == nil || !bytes.Equal(fm.Canonical(), leader.Canonical()) {
		return fmt.Sprintf("join-mid-storm: the joiner's snapshot diverges from the leader at seq %d", want)
	}
	var b strings.Builder
	if err := j.tel.Registry.WritePrometheus(&b); err != nil || strings.Contains(b.String(), "\nshield_feed_catchup_scans_total 0\n") {
		return "join-mid-storm: the joiner caught up without reading the leader's segments (its checkpoint was still in the ring)"
	}
	return ""
}

// close stops a joiner still waiting to join, and the follower if it
// has, and returns why the follower could not start, if it could not.
func (j *joiner) close() error {
	if !j.started {
		return nil
	}
	j.started = false
	close(j.stop)
	err := <-j.done
	if f := j.f.Load(); f != nil {
		f.Close()
	}
	return err
}
