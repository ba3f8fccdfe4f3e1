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
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/obs"
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
	subs     map[chan wire.RepRecord]int64
	err      error // sticky feed failure (a record the hook could not frame or order)
	dropSeam bool  // the seam canary (TestDropSeam)

	// Disk-tail catch-up telemetry; nil until Instrument.
	scans, scanRecords *obs.Counter
	scanSeconds        *obs.Histogram
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
// records committed since, from the ring or, past it, the store's
// segments.
func (f *Feed) Subscribe(afterSeq int64) (wire.Subscription, error) {
	f.mu.Lock()
	sub, ok, err := f.attachLocked(afterSeq, nil, nil)
	f.mu.Unlock()
	if ok || err != nil {
		return sub, err
	}

	// The gap predates the ring: snapshot catch-up, taken with mu
	// released (see Feed.mu). Commits keep flowing meanwhile; whatever
	// lands between the snapshot and the attach comes out of the ring
	// or, on a store, the segment tail.
	var snap []byte
	var snapSeq int64
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
	sub, ok, err = f.attachLocked(snapSeq, snap, nil)
	upto := f.lastSeq
	f.mu.Unlock()
	if ok || err != nil {
		return sub, err
	}
	var ch chan wire.RepRecord
	if f.store != nil {
		// The snapshot predates the ring too: read the records after it
		// from the store's segments with no lock held — the leader keeps
		// committing — straight into the subscription's channel, sized
		// so that the ring's splice below always fits.
		start := time.Now()
		ch = make(chan wire.RepRecord, upto-snapSeq+2*int64(f.ringMax)+subSlack)
		err = catchupScan(f.store, snapSeq, upto, func(r journal.Record) error {
			rec, err := recordFrame(r)
			ch <- rec
			return err
		})
		if f.scans != nil {
			f.scans.Inc()
			f.scanRecords.Add(uint64(len(ch)))
			f.scanSeconds.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			return sub, fmt.Errorf("replica: reading segment tail: %w", err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sub, ok, err = f.attachLocked(snapSeq, snap, ch)
	if err == nil && !ok {
		// Only a ring smaller than what commits during one catch-up gets
		// here; the follower redials and tries again.
		err = fmt.Errorf("replica: %d records committed during catch-up, past the ring", f.lastSeq-snapSeq)
	}
	return sub, err
}

// catchupScan is the disk-tail read of a snapshot catch-up; the stall
// test swaps it to park a scan mid-read.
var catchupScan = (*journal.Store).TailRecords

// attachLocked registers a subscriber that will hold state through
// fromSeq (its own applied seq when snap is nil, the snapshot's seq
// otherwise), with ch, when non-nil, already holding the records after
// fromSeq that a disk-tail scan read. It queues the rest through the
// feed's head from the ring; ok is false, with nothing attached, when
// they are no longer there. Callers hold mu.
func (f *Feed) attachLocked(fromSeq int64, snap []byte, ch chan wire.RepRecord) (sub wire.Subscription, ok bool, err error) {
	if f.err != nil {
		return sub, false, f.err
	}
	if snap == nil && fromSeq > f.lastSeq {
		return sub, false, fmt.Errorf("%w: follower at seq %d, leader at %d", ErrFollowerAhead, fromSeq, f.lastSeq)
	}
	disk := ch != nil
	have := fromSeq + int64(len(ch)) // ch holds fromSeq+1 through have, unread
	if f.dropSeam && disk {
		have++
	}
	var rest []wire.RepRecord
	floor := f.lastSeq
	switch {
	case have >= f.lastSeq:
		// Current — or a checkpoint that landed ahead of the commit hook,
		// in which case the floor keeps live fanout duplicate-free.
		floor = have
	case len(f.ring) > 0 && have+1 >= f.ringBase:
		rest = f.ring[have+1-f.ringBase:]
	default:
		return sub, false, nil
	}
	if !disk {
		ch = make(chan wire.RepRecord, len(rest)+subSlack)
	}
	f.dropSeam = f.dropSeam && !disk
	for _, rec := range rest {
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

// Subscribers returns the number of attached replication consumers
// (the shield_feed_subscribers gauge).
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Instrument registers the feed's families on t's registry: attached
// subscribers, and the disk-tail scans snapshot catch-ups read — how
// many, their records and how long each took. Call it before the feed
// serves a subscriber.
func (f *Feed) Instrument(t *obs.Telemetry) {
	r := t.Registry
	r.Collect("shield_feed_subscribers", "Replication subscribers attached to the leader's feed.",
		obs.KindGauge, func(emit func(float64, ...string)) { emit(float64(f.Subscribers())) })
	f.scans = r.Counter("shield_feed_catchup_scans_total",
		"Snapshot catch-ups that read the records after their snapshot from the store's segments.")
	f.scanRecords = r.Counter("shield_feed_catchup_records_total",
		"Records catch-up scans read from the store's segments.")
	f.scanSeconds = r.Histogram("shield_feed_catchup_scan_seconds",
		"Duration of one catch-up scan of the store's segments; no leader lock is held across it.", obs.LatencyBuckets())
}

// TestDropSeam makes the next disk-tail catch-up lose the first record
// after the tail — the seam canary: the follower's stream must break on
// the gap, and the torture join that watches it must say so.
func (f *Feed) TestDropSeam() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropSeam = true
}
