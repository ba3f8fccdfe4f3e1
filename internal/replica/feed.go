// Package replica implements leader/follower replication over the
// journal's command log: a Feed on the leader observes every durably
// committed record through the journal's commit hook and fans it out to
// wire replication subscribers, and a Follower dials the leader,
// catches up from a snapshot or the log tail, applies the identical
// deterministic command core, and serves the market's lock-free read
// views locally while tracking its staleness against the leader.
//
// The correctness contract is the command core's: the same command
// sequence yields byte-identical canonical snapshots, so a follower
// that has applied through seq N is provably in the leader's state at
// seq N. Everything here reduces to delivering records in strict
// sequence order exactly once — the wire layer rejects anything else.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/wire"
)

// DefaultRingSize is how many recent records a Feed retains for tail
// catch-up. A reconnecting follower whose gap fits the ring streams
// just the missed records; a larger gap gets a snapshot instead.
const DefaultRingSize = 4096

// subSlack is the subscriber channel capacity beyond any preloaded
// tail: the headroom a live subscriber has to absorb a commit burst
// before the feed drops it as too slow.
const subSlack = 1024

// ErrFollowerAhead reports a subscriber claiming more history than the
// leader has — a diverged follower or one talking to the wrong leader.
var ErrFollowerAhead = errors.New("replica: follower ahead of leader")

// Feed is the leader-side replication source (wire.ReplicationSource).
//
// It keeps no copy of the market. The journal's commit stage runs the
// hook only after a record's group has reached the sink, with the live
// market exactly at the group's last seq, so an aligned (snapshot, seq)
// pair is one call away: the store's newest checkpoint file, with the
// records between that checkpoint and the feed's head preloaded from
// the segment tail on disk — or, over a plain sink and on a store that
// has not checkpointed yet, the live market itself
// (journal.Market.CommittedCut).
//
// Attach a Feed with NewFeed after building the journaled market and
// before serving traffic: records committed while no hook is installed
// are not replayable to subscribers.
type Feed struct {
	jm    *journal.Market
	store *journal.Store // nil over a plain sink

	// mu is taken by the commit hook, which runs inside the commit
	// stage with the market's writer mutex held — so nothing that takes
	// that mutex (a catch-up snapshot) may run under mu.
	mu      sync.Mutex
	lastSeq int64

	ring     []wire.RepRecord
	ringBase int64 // seq of ring[0] when the ring is non-empty
	ringMax  int

	// subs maps each subscriber channel to its floor seq: records at or
	// below the floor are not fanned out to that subscriber (they are
	// already inside its catch-up snapshot or preloaded tail).
	subs map[chan wire.RepRecord]int64
	err  error // sticky feed failure (a record the hook could not frame or order)
}

// NewFeed builds a feed over jm and installs it as the journal's
// commit hook. ringMax bounds the tail-catch-up ring (0 means
// DefaultRingSize). Must be called before jm serves traffic.
func NewFeed(jm *journal.Market, ringMax int) (*Feed, error) {
	if ringMax <= 0 {
		ringMax = DefaultRingSize
	}
	f := &Feed{
		jm:       jm,
		store:    jm.Store(),
		lastSeq:  jm.LastSeq(),
		ringMax:  ringMax,
		subs:     make(map[chan wire.RepRecord]int64),
		ringBase: jm.LastSeq() + 1,
	}
	jm.OnCommit(f.commit)
	return f, nil
}

// recordFrame wraps one journal record as the replication frame a
// follower applies: the record's payload is already the command's
// binary encoding — the bytes the commit stage wrote to the segment —
// so it is copied into the frame as is.
func recordFrame(r journal.Record) (wire.RepRecord, error) {
	if r.Head {
		return wire.RepRecord{}, errors.New("replica: a head record cannot be replicated")
	}
	return wire.RepRecord{Seq: r.Seq, Payload: wire.AppendRecordFrame(nil, r.Seq, r.Payload)}, nil
}

// commit is the journal's commit hook: one durably committed record,
// in strict sequence order. It retains the record's replication frame
// in the ring and fans it out to subscribers — dropping (closing) any
// subscriber whose channel is full, because a blocked send here would
// stall the leader's commit stage.
func (f *Feed) commit(r journal.Record) {
	rec, err := recordFrame(r)

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	if err == nil && r.Seq != f.lastSeq+1 {
		err = fmt.Errorf("replica: commit hook saw seq %d, want %d", r.Seq, f.lastSeq+1)
	}
	if err != nil {
		f.err = fmt.Errorf("replica: feed poisoned at seq %d: %w", r.Seq, err)
		for ch := range f.subs {
			close(ch)
			delete(f.subs, ch)
		}
		return
	}
	f.lastSeq = r.Seq

	f.ring = append(f.ring, rec)
	if len(f.ring) >= 2*f.ringMax {
		// Amortized trim: keep the newest ringMax records.
		n := copy(f.ring, f.ring[len(f.ring)-f.ringMax:])
		f.ring = f.ring[:n]
		f.ringBase = f.ring[0].Seq
	}
	for ch, floor := range f.subs {
		if rec.Seq <= floor {
			continue
		}
		select {
		case ch <- rec:
		default:
			// Too slow to keep a live stream; the wire server sees the
			// close, drops the connection, and the follower resubscribes
			// with a snapshot or tail catch-up.
			close(ch)
			delete(f.subs, ch)
		}
	}
}

// Subscribe implements wire.ReplicationSource: it attaches a consumer
// that has applied through afterSeq. A gap that fits the ring is
// served as a tail (the missed records are preloaded onto the
// channel); anything older gets a canonical snapshot — the store's
// newest checkpoint, or the live market at a committed seq — plus the
// records committed since.
func (f *Feed) Subscribe(afterSeq int64) (wire.Subscription, error) {
	f.mu.Lock()
	if sub, ok, err := f.attachLocked(afterSeq, nil); ok || err != nil {
		f.mu.Unlock()
		return sub, err
	}
	f.mu.Unlock()

	// The gap predates the ring: snapshot catch-up, taken with mu
	// released (see Feed.mu). Commits keep flowing meanwhile; whatever
	// lands between the snapshot and the attach below comes out of the
	// ring or, on a store, the segment tail.
	var snap []byte
	var snapSeq int64
	var err error
	if f.store != nil {
		snap, snapSeq, err = f.store.CatchupSnapshot()
	}
	if snap == nil && err == nil {
		var cut *command.Cut
		if cut, snapSeq, err = f.jm.CommittedCut(); err == nil {
			var buf bytes.Buffer
			err = cut.WriteCanonical(&buf)
			snap = buf.Bytes()
		}
	}
	if err != nil {
		return wire.Subscription{}, fmt.Errorf("replica: catch-up snapshot: %w", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	sub, ok, err := f.attachLocked(snapSeq, snap)
	if err == nil && !ok {
		// Only a ring smaller than one commit burst gets here; the
		// follower redials and tries again.
		err = fmt.Errorf("replica: %d records committed during catch-up, past the ring", f.lastSeq-snapSeq)
	}
	return sub, err
}

// attachLocked registers a subscriber that will hold state through
// fromSeq (its own applied seq when snap is nil, the snapshot's seq
// otherwise), preloading the records between fromSeq and the feed's
// head. ok is false, with nothing attached, when those records are no
// longer at hand. Callers hold mu.
func (f *Feed) attachLocked(fromSeq int64, snap []byte) (sub wire.Subscription, ok bool, err error) {
	if f.err != nil {
		return sub, false, f.err
	}
	if snap == nil && fromSeq > f.lastSeq {
		return sub, false, fmt.Errorf("%w: follower at seq %d, leader at %d", ErrFollowerAhead, fromSeq, f.lastSeq)
	}
	var pending []wire.RepRecord
	floor := f.lastSeq
	switch {
	case fromSeq >= f.lastSeq:
		// Current — or a checkpoint that landed ahead of the commit hook,
		// in which case the floor keeps live fanout duplicate-free.
		floor = fromSeq
	case len(f.ring) > 0 && fromSeq+1 >= f.ringBase:
		pending = f.ring[fromSeq+1-f.ringBase:]
	case snap != nil && f.store != nil:
		err = f.store.TailRecords(fromSeq, f.lastSeq, func(r journal.Record) error {
			rec, err := recordFrame(r)
			pending = append(pending, rec)
			return err
		})
		if err != nil {
			return sub, false, fmt.Errorf("replica: reading segment tail: %w", err)
		}
	default:
		return sub, false, nil
	}

	ch := make(chan wire.RepRecord, len(pending)+subSlack)
	for _, rec := range pending {
		ch <- rec
	}
	f.subs[ch] = floor
	sub = wire.Subscription{Snapshot: snap, StartSeq: fromSeq, Records: ch}
	sub.Cancel = func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
	}
	return sub, true, nil
}

// LeaderSeq implements wire.ReplicationSource: the newest committed
// sequence number, for stream heartbeats.
func (f *Feed) LeaderSeq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSeq
}

// Healthy returns nil while the feed can serve subscribers, and the
// sticky poisoning error after a record arrived out of order or could
// not be framed.
func (f *Feed) Healthy() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Subscribers returns the number of attached replication consumers
// (diagnostics and tests).
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}
