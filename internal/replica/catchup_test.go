package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
)

// catchupRig is a store-backed leader whose feed ring (16 records) has
// long moved past its one checkpoint, so a fresh subscriber's catch-up
// reads the records after the checkpoint from the segments.
func catchupRig(t *testing.T) *leaderRig {
	t.Helper()
	r := leaderRigOver(t, journal.StoreConfig{SegmentRecords: 16, CheckpointEvery: -1}, 16)
	appendChurn(t, r, "pre", 40)
	if err := r.jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendChurn(t, r, "post", 100)
	return r
}

// parkCatchupScan swaps the catch-up's segment read for one that parks
// on its first record: parked is closed once it has, and release lets
// it go on (the test's cleanup releases it too).
func parkCatchupScan(t *testing.T) (parked chan struct{}, release func()) {
	parked, unpark := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(unpark) })
	var once sync.Once
	catchupScan = func(s *journal.Store, afterSeq, uptoSeq int64, fn func(journal.Record) error) error {
		return s.TailRecords(afterSeq, uptoSeq, func(rec journal.Record) error {
			once.Do(func() { close(parked); <-unpark })
			return fn(rec)
		})
	}
	t.Cleanup(func() {
		release()
		catchupScan = (*journal.Store).TailRecords
	})
	return parked, release
}

func waitParked(t *testing.T, parked chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the catch-up never reached the segment scan")
	}
}

// TestCatchupScanHoldsNoLeaderLock: while a follower's catch-up scan of
// the leader's segments is parked mid-read, a commit — Store.writeGroup,
// then the feed's commit hook — still finishes. Holding Store.mu or
// Feed.mu across the scan fails it here, by name.
func TestCatchupScanHoldsNoLeaderLock(t *testing.T) {
	r := catchupRig(t)
	parked, release := parkCatchupScan(t)
	subscribed := make(chan error, 1)
	go func() {
		sub, err := r.feed.Subscribe(0)
		if err == nil {
			sub.Cancel()
		}
		subscribed <- err
	}()
	waitParked(t, parked)

	committed := make(chan error, 1)
	go func() { committed <- r.jm.RegisterBuyer("during-scan") }()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a commit waited on a parked catch-up scan: the scan holds a leader lock (Store.mu or Feed.mu)")
	}
	release()
	if err := <-subscribed; err != nil {
		t.Fatal(err)
	}
}

// TestCatchupSpliceIsExactlyOnce: what commits while a catch-up scan
// reads the segments comes from the ring, and the subscriber gets every
// record after its snapshot exactly once and in order — no gap and no
// repeat at the seam between the disk tail and the ring — then the live
// stream, each record the bytes the leader's log holds.
func TestCatchupSpliceIsExactlyOnce(t *testing.T) {
	r := catchupRig(t)
	ckpt := r.jm.Store().LastCheckpoint()
	parked, release := parkCatchupScan(t)
	subscribed := make(chan wire.Subscription, 1)
	go func() {
		sub, err := r.feed.Subscribe(0)
		if err != nil {
			t.Error(err)
		}
		subscribed <- sub
	}()
	waitParked(t, parked)
	appendChurn(t, r, "during", 10) // past the scan's end: the ring's
	release()
	sub := <-subscribed
	if sub.Records == nil {
		t.FailNow()
	}
	defer sub.Cancel()
	appendChurn(t, r, "after", 5) // live

	if sub.Snapshot == nil || sub.StartSeq != ckpt {
		t.Fatalf("catch-up from seq %d (snapshot %t), want the checkpoint at %d", sub.StartSeq, sub.Snapshot != nil, ckpt)
	}
	var want [][]byte
	err := r.jm.Store().TailRecords(ckpt, r.feed.LeaderSeq(), func(rec journal.Record) error {
		want = append(want, wire.AppendRecordFrame(nil, rec.Seq, rec.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != int(r.feed.LeaderSeq()-ckpt) {
		t.Fatalf("the leader's log holds %d records after seq %d, want %d", len(want), ckpt, r.feed.LeaderSeq()-ckpt)
	}
	for i, frame := range want {
		select {
		case rec := <-sub.Records:
			if seq := ckpt + int64(i) + 1; rec.Seq != seq || !bytes.Equal(rec.Payload, frame) {
				t.Fatalf("record %d of the catch-up is seq %d (%x), want seq %d (%x)", i+1, rec.Seq, rec.Payload, seq, frame)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the catch-up stopped after %d of %d records", i, len(want))
		}
	}
	select {
	case rec := <-sub.Records:
		t.Fatalf("record seq %d delivered past the leader's head, or twice", rec.Seq)
	case <-time.After(20 * time.Millisecond):
	}
}

// scriptedLeader serves every subscriber the same snapshot, at seq 10,
// and then records 11, 12, ... with the given bodies — or, with tail
// set, a subscriber past the snapshot the records after its seq.
type scriptedLeader struct {
	snap   []byte
	bodies [][]byte
	tail   bool
	subs   atomic.Int32
}

func (l *scriptedLeader) Subscribe(after int64) (wire.Subscription, error) {
	l.subs.Add(1)
	sub := wire.Subscription{Snapshot: l.snap, StartSeq: 10, Cancel: func() {}}
	if l.tail && after >= 10 {
		sub.Snapshot, sub.StartSeq = nil, after
	}
	ch := make(chan wire.RepRecord, len(l.bodies))
	for i, body := range l.bodies {
		if seq := int64(11 + i); seq > sub.StartSeq {
			ch <- wire.RepRecord{Seq: seq, Payload: wire.AppendRecordFrame(nil, seq, body)}
		}
	}
	sub.Records = ch
	return sub, nil
}

func (l *scriptedLeader) LeaderSeq() int64 { return 10 + int64(len(l.bodies)) }

// newScriptedLeader scripts bodies after a snapshot that holds seller
// s1, dataset d1 and buyer b0.
func newScriptedLeader(t *testing.T, bodies ...[]byte) *scriptedLeader {
	t.Helper()
	m := market.MustNew(testConfig())
	if err := errors.Join(m.RegisterSeller("s1"), m.UploadDataset("s1", "d1"), m.RegisterBuyer("b0")); err != nil {
		t.Fatal(err)
	}
	return &scriptedLeader{snap: m.Canonical(), bodies: bodies}
}

// follow starts a follower of l configured as cfg, with a fast redial.
func (l *scriptedLeader) follow(t *testing.T, cfg Config) *Follower {
	t.Helper()
	ws := wire.NewServer(market.MustNew(testConfig())).WithReplication(l).WithHeartbeatInterval(10 * time.Millisecond)
	cfg.Dial = func() (net.Conn, error) {
		srv, cli := net.Pipe()
		go func() { _ = ws.ServeConn(srv) }()
		return cli, nil
	}
	cfg.BackoffMin, cfg.BackoffMax = time.Millisecond, 5*time.Millisecond
	f, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// followScripted starts an in-memory follower of a scripted leader.
func followScripted(t *testing.T, bodies ...[]byte) (*Follower, *scriptedLeader) {
	t.Helper()
	l := newScriptedLeader(t, bodies...)
	return l.follow(t, Config{}), l
}

func encoded(t *testing.T, cmd command.Command) []byte {
	t.Helper()
	b, err := command.EncodeBinary(cmd)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFollowerRefusesAnUndecodableRecord: a record body that does not
// decode is refused before any state changes — the commit stage refuses
// it without logging it — so the stream ends with ErrReplicaPayload and
// the follower redials, not diverged. (The replication decoder no
// longer decodes bodies; this is where FuzzReplicateDecode's "malformed
// body" property lives now.)
func TestFollowerRefusesAnUndecodableRecord(t *testing.T) {
	bid := encoded(t, command.SubmitBid{Buyer: "b0", Dataset: "d1", Amount: 50})
	for name, body := range map[string][]byte{
		"empty":          {},
		"unknown opcode": {0xEE},
		"truncated bid":  bid[:len(bid)-1],
		"trailing bytes": append(encoded(t, command.Tick{}), 0),
	} {
		t.Run(name, func(t *testing.T) {
			f, l := followScripted(t, encoded(t, command.Tick{}), body)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				f.mu.Lock()
				lastErr := f.lastErr
				f.mu.Unlock()
				if errors.Is(lastErr, wire.ErrReplicaPayload) && l.subs.Load() >= 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after %d subscriptions the stream ended with %v, want ErrReplicaPayload and a redial", l.subs.Load(), lastErr)
				}
			}
			if err := f.Ready(); err != nil && errors.Is(err, errDiverged) {
				t.Fatalf("an undecodable record diverged the follower: %v", err)
			}
			// Each redial reseeds at seq 10 and applies the tick at 11 again;
			// the refused record never advances it.
			for deadline := time.Now().Add(5 * time.Second); f.Applied() != 11; time.Sleep(time.Millisecond) {
				if got := f.Applied(); got > 11 || time.Now().After(deadline) {
					t.Fatalf("applied through seq %d, want 11 (the tick before the refused record)", got)
				}
			}

			m, err := journal.RestoreFollower(l.snap, 10)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Canonical()
			_, err = m.ApplyEncodedCtx(context.Background(), body, nil)
			if !errors.Is(err, command.ErrMalformed) && !errors.Is(err, command.ErrUnknownOp) || !bytes.Equal(m.Canonical(), before) || m.LastSeq() != 10 {
				t.Fatalf("a follower's commit stage: %v, state changed %t, at seq %d; want a decode error, no change and seq 10",
					err, !bytes.Equal(m.Canonical(), before), m.LastSeq())
			}
		})
	}
}

// TestFollowerDivergesOnARecordTheStateRefuses: a body that decodes but
// that the follower's state refuses is divergence — sticky, no redial —
// and Ready names the seq and the opcode.
func TestFollowerDivergesOnARecordTheStateRefuses(t *testing.T) {
	dup := encoded(t, command.RegisterBuyer{Buyer: "b0"})
	f, l := followScripted(t, encoded(t, command.Tick{}), dup)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := f.Ready()
		if errors.Is(err, errDiverged) {
			for _, want := range []string{"seq 12", fmt.Sprintf("opcode %d", dup[0])} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("divergence %q does not name %q", err, want)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Ready() = %v, want divergence", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := l.subs.Load(); n != 1 {
		t.Fatalf("a diverged follower subscribed %d times; it must stop", n)
	}
}

// TestStoredFollowerStaysDivergedOnABatch: a store-backed follower whose
// state refuses the second entry of a replicated bid_batch, the first
// having applied, writes nothing of that record — no segment record, no
// checkpoint, Close's included. Its store stays at the seq before, so a
// restart recovers that state, refetches the record and diverges again.
func TestStoredFollowerStaysDivergedOnABatch(t *testing.T) {
	tick := encoded(t, command.Tick{})
	batch := encoded(t, command.BidBatch{Bids: []command.SubmitBid{
		{Buyer: "b0", Dataset: "d1", Amount: 50},
		{Buyer: "ghost", Dataset: "d1", Amount: 50},
	}})
	l := newScriptedLeader(t, tick, batch)
	l.tail = true
	want, err := journal.RestoreFollower(l.snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.ApplyEncodedCtx(context.Background(), tick, nil); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "follower")
	for run := 1; run <= 2; run++ {
		f := l.follow(t, Config{Dir: dir, Store: journal.StoreConfig{CheckpointEvery: 1000}})
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			err := f.Ready()
			if errors.Is(err, errDiverged) && strings.Contains(err.Error(), "seq 12") && strings.Contains(err.Error(), "unknown buyer: ghost") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %d: Ready() = %v, want divergence at seq 12 on the unknown buyer", run, err)
			}
		}
		f.Close()
		m, seq, _, err := journal.RecoverDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 11 || !bytes.Equal(m.Canonical(), want.Canonical()) {
			t.Fatalf("run %d: the diverged follower's store recovers seq %d (want 11), state %s", run, seq, m.Snapshot().Diff(want.Snapshot()))
		}
	}
	if n := l.subs.Load(); n != 2 {
		t.Fatalf("%d subscriptions over two runs, want 2", n)
	}
}

// TestFeedInstrumentCountsCatchupScans: an instrumented feed exposes
// its subscribers and its disk-tail catch-ups — one scan, the records
// after the checkpoint — in an exposition that passes the lint.
func TestFeedInstrumentCountsCatchupScans(t *testing.T) {
	r := catchupRig(t)
	tel := obs.NewTelemetry()
	r.feed.Instrument(tel)
	sub, err := r.feed.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	if problems := obs.LintExposition(exposition); len(problems) != 0 {
		t.Fatalf("feed families fail the lint: %v", problems)
	}
	tail := r.feed.LeaderSeq() - r.jm.Store().LastCheckpoint()
	for _, want := range []string{
		"\nshield_feed_subscribers 1\n",
		"\nshield_feed_catchup_scans_total 1\n",
		fmt.Sprintf("\nshield_feed_catchup_records_total %d\n", tail),
		"\nshield_feed_catchup_scan_seconds_count 1\n",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(want), exposition)
		}
	}
}
