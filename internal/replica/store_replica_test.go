package replica

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
)

// newStoreLeaderRig is a leader rig with aggressive rotation and
// checkpointing, so catch-up exercises the checkpoint file and
// segment-tail paths rather than the in-memory ring.
func newStoreLeaderRig(t *testing.T, ringMax int, opts ...journal.Option) *leaderRig {
	return leaderRigOver(t, journal.StoreConfig{SegmentRecords: 16, CheckpointEvery: 24}, ringMax, opts...)
}

// appendChurn drives n guaranteed-append records (unique buyer
// registrations) — churn's bids are mostly shield-rejected and never
// reach the journal, which is no good for filling segments.
func appendChurn(t *testing.T, r *leaderRig, tag string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreLeaderCheckpointCatchUp: on a store-backed leader a fresh
// follower's snapshot catch-up is served from the newest checkpoint
// file plus the segment tail, and still converges byte-identically.
func TestStoreLeaderCheckpointCatchUp(t *testing.T) {
	r := newStoreLeaderRig(t, 8)
	// Enough history for several rotations and checkpoints, and far more
	// records than the tiny ring retains.
	appendChurn(t, r, "cua", 80)
	appendChurn(t, r, "pb", 40)
	// Checkpoints land asynchronously; wait for one.
	for deadline := time.Now().Add(5 * time.Second); r.jm.Store().LastCheckpoint() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("leader store produced no checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}

	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)

	// Live streaming after catch-up.
	appendChurn(t, r, "cub", 30)
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
}

// TestFollowerPersistentColdRestart: a follower with a local store
// directory persists every applied record; a cold restart recovers the
// market and its position from local disk — no leader snapshot needed
// — and rejoins the stream from its own durable seq.
func TestFollowerPersistentColdRestart(t *testing.T) {
	r := newStoreLeaderRig(t, 0)
	dir := t.TempDir()
	sc := journal.StoreConfig{SegmentRecords: 16, CheckpointEvery: 24}

	f, err := Start(Config{
		Dial: r.dial, Dir: dir, Store: sc,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, r.feed, 5*time.Second)
	appendChurn(t, r, "pa", 60)
	r.churn(t, 20)
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)
	if err := f.PersistErr(); err != nil {
		t.Fatalf("local persistence failed: %v", err)
	}
	appliedBefore := f.Applied()
	f.Close()

	inv, err := journal.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Close checkpointed the final applied seq, and compaction then
	// deleted every covered sealed segment — the local footprint is the
	// checkpoint plus the active segment, not the full record history.
	if inv.LastSeq != appliedBefore || inv.LastCheckpoint != appliedBefore {
		t.Fatalf("local store inventory: last seq %d, last checkpoint %d, follower applied %d",
			inv.LastSeq, inv.LastCheckpoint, appliedBefore)
	}

	// Leader moves on while the follower is down.
	appendChurn(t, r, "pb", 40)

	// Cold restart with the leader unreachable: state must come back
	// from local disk alone.
	gate := make(chan struct{})
	gatedDial := func() (net.Conn, error) {
		select {
		case <-gate:
			return r.dial()
		default:
			return nil, errors.New("leader unreachable")
		}
	}
	f2, err := Start(Config{
		Dial: gatedDial, Dir: dir, Store: sc,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Market() == nil {
		t.Fatal("cold restart did not recover a market from the local store")
	}
	if got := f2.Applied(); got != appliedBefore {
		t.Fatalf("cold restart recovered seq %d, want local durable seq %d", got, appliedBefore)
	}
	if err := f2.Ready(); err != nil {
		t.Fatalf("locally recovered follower not ready: %v", err)
	}

	// Leader returns; the follower resumes from its local seq and
	// converges on everything it missed.
	close(gate)
	waitConverged(t, f2, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f2)
	if err := f2.PersistErr(); err != nil {
		t.Fatalf("local persistence failed after restart: %v", err)
	}
}

// TestFollowerKeepsServingWhenItsStoreFails: the local-store failure
// policy. A follower whose store directory is removed mid-stream fails
// the next rotation's segment creation; the failure is sticky and
// non-fatal — PersistErr names it, the follower stays ready and keeps
// converging in memory, and the store takes no further record or
// checkpoint. Its shield_replica_store_failed gauge reads 1 from then on.
func TestFollowerKeepsServingWhenItsStoreFails(t *testing.T) {
	r := newLeaderRig(t, 0)
	dir := filepath.Join(t.TempDir(), "follower")
	tel := obs.NewTelemetry()
	f, err := Start(Config{Dial: r.dial, Dir: dir, Store: journal.StoreConfig{SegmentRecords: 4, CheckpointEvery: 6},
		Telemetry: tel, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	appendChurn(t, r, "pa", 10)
	mustMatchLeader(t, r, f)
	st := f.m.Store()
	if err := cmp.Or(f.PersistErr(), st.Checkpoint()); err != nil {
		t.Fatal(err) // healthy so far; no checkpoint is left in flight
	}
	storeFailed := func(want string) {
		t.Helper()
		var text strings.Builder
		if err := tel.Registry.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		if line := "\nshield_replica_store_failed " + want + "\n"; !strings.Contains(text.String(), line) {
			t.Fatalf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
	storeFailed("0")

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	appendChurn(t, r, "pb", 8) // two segments' worth: the rotation must fail
	mustMatchLeader(t, r, f)
	perr := f.PersistErr()
	if !errors.Is(perr, fs.ErrNotExist) || !strings.Contains(perr.Error(), dir) {
		t.Fatalf("PersistErr() = %v, want the failed segment creation in %s", perr, dir)
	}
	if err := f.Ready(); err != nil {
		t.Fatalf("a follower whose store failed turned unready: %v", err)
	}
	storeFailed("1")

	ckpt := st.LastCheckpoint()
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	appendChurn(t, r, "pc", 20)
	mustMatchLeader(t, r, f)
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 || st.LastCheckpoint() != ckpt {
		t.Fatalf("the failed store took more: files %v (%v), checkpoint %d → %d", ents, err, ckpt, st.LastCheckpoint())
	}
	if got := f.PersistErr(); got == nil || got.Error() != perr.Error() {
		t.Fatalf("PersistErr() moved from %v to %v", perr, got)
	}
}

// TestFollowerRegistersOnlyRecoveryGauges: a follower with a local
// store has an uninstrumented journal writer, so of the journal's
// families its registry — the /metrics of `marketd -follow
// -journal-dir` — holds the two recovery gauges and nothing that would
// sit at zero forever.
func TestFollowerRegistersOnlyRecoveryGauges(t *testing.T) {
	r := newLeaderRig(t, 0)
	tel := obs.NewTelemetry()
	f, err := Start(Config{Dial: r.dial, Dir: t.TempDir(), Telemetry: tel,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)
	var text strings.Builder
	if err := tel.Registry.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	exposition := text.String()
	for _, want := range []string{"shield_journal_recovery_seconds ", "shield_journal_recovery_records "} {
		if !strings.Contains(exposition, want) {
			t.Errorf("follower exposition lacks %q", want)
		}
	}
	for _, idle := range []string{"shield_journal_group_records", "shield_journal_appended_bytes_total", `stage="group_commit.`} {
		if strings.Contains(exposition, idle) {
			t.Errorf("follower exposition carries the writer's %q, which no follower ever moves", idle)
		}
	}
}

// TestOnePayloadFromStageToFollower: a committed command is encoded
// once. The payload a feed subscriber receives, the payload in the
// leader's segment and the payload the follower's local store appended
// are the same bytes for every record — registrations, bids, a batch
// with a rejected entry, ticks, traced and untraced alike.
func TestOnePayloadFromStageToFollower(t *testing.T) {
	keepAll := journal.StoreConfig{SegmentRecords: 16, CheckpointEvery: -1, RetainSegments: -1}
	jm, _, err := journal.OpenStore(testConfig(), t.TempDir(), keepAll)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	for _, err := range []error{jm.RegisterSeller("s1"), jm.UploadDataset("s1", "d1"), jm.RegisterBuyer("b0")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	feed, err := NewFeed(jm, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &leaderRig{jm: jm, feed: feed,
		ws: wire.NewServer(jm).WithReplication(feed).WithHeartbeatInterval(10 * time.Millisecond)}
	sub, err := feed.Subscribe(feed.LeaderSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	f, err := Start(Config{Dial: r.dial, Dir: t.TempDir(), Store: keepAll,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, feed, 5*time.Second)
	first := feed.LeaderSeq() + 1

	appendChurn(t, r, "p", 20)
	r.churn(t, 30)
	traced := obs.WithRequestID(context.Background(), "req-payload-test")
	if _, err := jm.SubmitBidCtx(traced, "p-1", "d1", 64); err != nil {
		t.Fatal(err)
	}
	res := jm.SubmitBids([]market.BidRequest{
		{Buyer: "p-2", Dataset: "d1", Amount: 33},
		{Buyer: "nobody", Dataset: "d1", Amount: 33},
		{Buyer: "p-3", Dataset: "d1", Amount: 71},
	})
	if res[0].Err != nil || res[1].Err == nil || res[2].Err != nil {
		t.Fatalf("batch: %+v", res)
	}
	last := feed.LeaderSeq()
	waitConverged(t, f, feed, 5*time.Second)
	if err := f.PersistErr(); err != nil {
		t.Fatal(err)
	}

	sawTrace := false
	segmentPayloads := func(st *journal.Store) map[int64][]byte {
		t.Helper()
		out := make(map[int64][]byte)
		if err := st.TailRecords(first-1, last, func(rec journal.Record) error {
			out[rec.Seq] = append([]byte(nil), rec.Payload...)
			sawTrace = sawTrace || rec.Trace == "req-payload-test"
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	leader := segmentPayloads(jm.Store())
	if !sawTrace {
		t.Fatal("the traced bid's record does not carry its request ID")
	}
	follower := segmentPayloads(f.m.Store())
	for seq := first; seq <= last; seq++ {
		rec := <-sub.Records
		fr, err := wire.DecodeReplicationFrame(rec.Payload, seq-1)
		if err != nil {
			t.Fatalf("subscriber frame %d: %v", seq, err)
		}
		want, ok := leader[seq]
		if !ok || len(want) == 0 {
			t.Fatalf("leader segments hold no record %d", seq)
		}
		if !bytes.Equal(fr.Payload, want) {
			t.Fatalf("seq %d: feed payload %x, leader segment payload %x", seq, fr.Payload, want)
		}
		if !bytes.Equal(follower[seq], want) {
			t.Fatalf("seq %d: follower segment payload %x, leader segment payload %x", seq, follower[seq], want)
		}
	}
}

// TestFollowerLandsLeaderCheckpointBytes: the snapshot a store-backed
// leader sends is its newest checkpoint's body as it sits on disk, and a
// follower with a local store lands those bytes as its own checkpoint —
// the two files are identical — without either side re-encoding.
func TestFollowerLandsLeaderCheckpointBytes(t *testing.T) {
	r := newStoreLeaderRig(t, 8)
	appendChurn(t, r, "cua", 80)
	if err := r.jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := r.jm.Store().LastCheckpoint()

	dir := t.TempDir()
	f, err := Start(Config{Dial: r.dial, Dir: dir, Store: journal.StoreConfig{CheckpointEvery: -1},
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)
	mustMatchLeader(t, r, f)

	name := fmt.Sprintf("%014d.ckpt", seq)
	want, err := os.ReadFile(filepath.Join(r.jm.Store().Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("follower did not land the leader's checkpoint %s: %v", name, err)
	}
	if !bytes.Equal(got, want) || want[0] == '{' {
		t.Fatalf("follower's %s (%d bytes) is not the leader's (%d bytes)", name, len(got), len(want))
	}
}

// jsonLeader is a replication source that sends its snapshots the way a
// leader older than the binary snapshot codec did: as JSON.
type jsonLeader struct{ *Feed }

func (l jsonLeader) Subscribe(afterSeq int64) (wire.Subscription, error) {
	sub, err := l.Feed.Subscribe(afterSeq)
	if err == nil && sub.Snapshot != nil {
		var snap market.Snapshot
		if snap, err = command.DecodeSnapshot(sub.Snapshot); err == nil {
			sub.Snapshot, err = json.Marshal(snap)
		}
	}
	return sub, err
}

// TestFollowerRefusesAnOlderLeadersJSONSnapshot: a leader older than the
// binary snapshot codec sends its snapshot as JSON, which this build does
// not read. The follower refuses it, stays stateless — its local store
// untouched — and says why in its readiness reason.
func TestFollowerRefusesAnOlderLeadersJSONSnapshot(t *testing.T) {
	r := newStoreLeaderRig(t, 8)
	r.ws = wire.NewServer(r.jm).WithReplication(jsonLeader{r.feed}).WithHeartbeatInterval(10 * time.Millisecond)
	appendChurn(t, r, "cua", 60)

	dir := t.TempDir()
	f, err := Start(Config{Dial: r.dial, Dir: dir, Store: journal.StoreConfig{CheckpointEvery: -1},
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := f.Ready()
		if err != nil && strings.Contains(err.Error(), "no state yet") && strings.Contains(err.Error(), "restoring leader snapshot") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Ready() = %v, want the no-state reason naming the refused snapshot", err)
		}
	}
	if f.Market() != nil {
		t.Fatal("the follower serves a market restored from a JSON snapshot")
	}
	if inv, err := journal.InspectDir(dir); err != nil || len(inv.Checkpoints) != 0 || len(inv.Segments) != 0 {
		t.Fatalf("follower's local store after a refused JSON catch-up: %+v, %v", inv, err)
	}
}

// TestFollowerReadyNamesTheLastRefusal: a follower the leader keeps
// refusing says why in its readiness reason, which is what /readyz
// prints — not just that it has no state.
func TestFollowerReadyNamesTheLastRefusal(t *testing.T) {
	r := newStoreLeaderRig(t, 8)
	r.ws = wire.NewServer(r.jm) // replication not enabled: every subscribe is refused
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := f.Ready()
		if err != nil && strings.Contains(err.Error(), "no state yet") && strings.Contains(err.Error(), "replication not enabled") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Ready() = %v, want the no-state reason naming the leader's refusal", err)
		}
	}
}
