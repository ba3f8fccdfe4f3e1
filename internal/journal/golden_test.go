package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/market"
)

var updateGolden = flag.Bool("update", false, "regenerate the current-format golden journal fixtures")

const (
	// The PR-1-era (format version 0) fixture. Frozen: the current
	// writer can no longer produce it, so -update does not touch it —
	// it exists precisely to prove old logs still migrate.
	legacyLogPath  = "testdata/pr1.log"
	legacySnapPath = "testdata/pr1.snapshot.json"
	// The version-2 (JSON-lines) fixture. Frozen for the same reason:
	// writers emit only frames now.
	v2LogPath  = "testdata/v2.log"
	v2SnapPath = "testdata/v2.snapshot.json"
	// The current-format fixture, regenerated with -update on
	// deliberate format bumps.
	goldenLogPath  = "testdata/v3.log"
	goldenSnapPath = "testdata/v3.snapshot.json"
)

// goldenWorkload is the fixed operation script behind all the checked-in
// fixtures: every journaled op kind, including a bid_batch with a
// rejected entry and a sold-then-bid dataset mix. It must never change —
// the fixtures pin the on-disk format and replay semantics.
func goldenWorkload(t *testing.T, sink *bytes.Buffer) *Market {
	t.Helper()
	m, err := NewMarket(testConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		m.RegisterSeller("acme"),
		m.RegisterSeller("globex"),
		m.UploadDataset("acme", "weather"),
		m.UploadDataset("globex", "traffic"),
		m.ComposeDataset("weather+traffic", "weather", "traffic"),
		m.RegisterBuyer("alice"),
		m.RegisterBuyer("bob"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SubmitBid("alice", "weather", 55); err != nil {
		t.Fatal(err)
	}
	res := m.SubmitBids([]market.BidRequest{
		{Buyer: "bob", Dataset: "traffic", Amount: 70},
		{Buyer: "ghost", Dataset: "weather", Amount: 60}, // rejected, not journaled
		{Buyer: "alice", Dataset: "weather+traffic", Amount: 130},
	})
	if res[0].Err != nil || res[2].Err != nil || res[1].Err == nil {
		t.Fatalf("golden batch results changed: %+v", res)
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBid("bob", "weather", 95); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("initech"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("initech", "logs"); err != nil {
		t.Fatal(err)
	}
	if err := m.WithdrawDataset("initech", "logs"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

// restoreMatches replays a fixture log and asserts the rebuilt market's
// snapshot is byte-identical to the fixture snapshot.
func restoreMatches(t *testing.T, logBytes, want []byte) {
	t.Helper()
	m, err := Restore(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatalf("fixture journal no longer restores: %v", err)
	}
	got, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		var gs, ws market.Snapshot
		if json.Unmarshal(got, &gs) == nil && json.Unmarshal(want, &ws) == nil {
			t.Fatalf("replayed snapshot drifted from golden: %s", gs.Diff(ws))
		}
		t.Fatal("replayed snapshot drifted from golden (and no longer decodes)")
	}
}

// migratedLog migrates a copy of the flat log at path and returns the
// frames its store's segment 0 holds: the log as this build reads it.
func migratedLog(t *testing.T, path string) []byte {
	t.Helper()
	dir, _, err := Migrate(plantFile(t, filepath.Base(path), mustRead(t, path)))
	if err != nil {
		t.Fatalf("migrating %s: %v", path, err)
	}
	return storeBody(t, dir)
}

// refusedByName asserts a reader refused an older build's bytes with
// ErrVersion naming the command that rewrites them.
func refusedByName(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "`marketctl journal-migrate ") {
		t.Fatalf("%s: got %v, want ErrVersion naming marketctl journal-migrate", what, err)
	}
}

// TestGoldenPR1JournalReplays is the backward-compatibility gate: the
// checked-in PR-1-era journal — format version 0, written before the
// command core existed — is refused as it is, and once migrated must
// keep restoring to a byte-identical market snapshot. If this fails, a
// change broke the migration of logs written by earlier releases — fix
// it, don't regenerate the fixture (it is frozen; the current writer
// cannot produce version-0 logs).
func TestGoldenPR1JournalReplays(t *testing.T) {
	logBytes := mustRead(t, legacyLogPath)
	if bytes.Contains(logBytes, []byte(`"v":`)) {
		t.Fatal("legacy fixture carries a version field; it must stay a version-0 log")
	}
	_, err := Restore(bytes.NewReader(logBytes))
	refusedByName(t, "restoring the unmigrated PR-1 journal", err)
	migrated := migratedLog(t, legacyLogPath)
	events, err := Read(bytes.NewReader(migrated))
	if err != nil {
		t.Fatalf("migrated PR-1 journal does not parse: %v", err)
	}
	if events[0].V != FormatVersion {
		t.Fatalf("migrated head carries version %d, want %d", events[0].V, FormatVersion)
	}
	var sawBatch bool
	for _, e := range events {
		if e.Op == OpBidBatch {
			sawBatch = true
			if len(e.Bids) != 2 {
				t.Fatalf("golden bid_batch carries %d bids, want 2", len(e.Bids))
			}
		}
	}
	if !sawBatch {
		t.Fatal("golden log lost its bid_batch event")
	}
	restoreMatches(t, migrated, mustRead(t, legacySnapPath))
}

// TestGoldenV2JournalReplays: the checked-in version-2 JSON-lines log —
// what every store and flat journal written before frames holds — is
// refused as it is, and once migrated must keep restoring to its
// checked-in snapshot. Frozen, like the PR-1 fixture.
func TestGoldenV2JournalReplays(t *testing.T) {
	logBytes := mustRead(t, v2LogPath)
	if !bytes.Contains(logBytes, []byte(`"v":2`)) {
		t.Fatal("v2 fixture lost its version field")
	}
	_, err := Restore(bytes.NewReader(logBytes))
	refusedByName(t, "restoring the unmigrated v2 journal", err)
	restoreMatches(t, migratedLog(t, v2LogPath), mustRead(t, v2SnapPath))
}

// TestGoldenV3JournalStable pins the current on-disk format: the
// checked-in version-3 log must parse with its stamped version, restore
// to its checked-in snapshot, and — format stability cuts both ways —
// the current writer must still emit it byte-identically for the same
// operations.
func TestGoldenV3JournalStable(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		m := goldenWorkload(t, &buf)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLogPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := json.MarshalIndent(m.Market.Snapshot(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapPath, append(snap, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden fixtures regenerated")
	}

	logBytes, err := os.ReadFile(goldenLogPath)
	if err != nil {
		t.Fatal(err)
	}
	if logBytes[0] != frameTag {
		t.Fatal("v3 fixture does not open with a frame")
	}
	events, err := Read(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatalf("v3 journal no longer parses: %v", err)
	}
	if events[0].V != FormatVersion {
		t.Fatalf("v3 head carries version %d, want %d", events[0].V, FormatVersion)
	}
	want, err := os.ReadFile(goldenSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	restoreMatches(t, logBytes, want)

	// The current writer still emits the byte-identical log for the
	// same operations.
	var buf bytes.Buffer
	goldenWorkload(t, &buf)
	if !bytes.Equal(buf.Bytes(), logBytes) {
		t.Fatal("writer output drifted from the v3 on-disk format")
	}

	// The frame log and the migrated JSON-lines log record the same
	// commands: the decoded Event views agree, the head's version included.
	v2Events, err := Read(bytes.NewReader(migratedLog(t, v2LogPath)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, v2Events) {
		t.Fatalf("v3 and v2 fixtures decode to different events:\n%+v\n%+v", events, v2Events)
	}
}

// TestGoldenFixturesAgree: the fixtures record the same workload in
// different format versions, so they must rebuild identical markets.
func TestGoldenFixturesAgree(t *testing.T) {
	legacy, err := os.ReadFile(legacySnapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v2SnapPath, goldenSnapPath} {
		other, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy, other) {
			t.Fatalf("version-0 fixture and %s no longer rebuild the same market", path)
		}
	}
}

// TestUnknownVersionRejected: a head claiming any version but this
// build's — an older one included — fails with ErrVersion instead of
// replaying under guessed semantics.
func TestUnknownVersionRejected(t *testing.T) {
	logBytes := mustRead(t, goldenLogPath)
	bounds := recordBoundaries(t, logBytes, 1)
	var head Record
	if err := parseBody(&head, logBytes[frameHeader:bounds[0]]); err != nil || !head.Head {
		t.Fatalf("golden log does not open with a head frame: %v", err)
	}
	for _, v := range []int{0, 1, 2, 4} {
		payload := bytes.Replace(head.Payload, []byte(`"v":3`), []byte(fmt.Sprintf(`"v":%d`, v)), 1)
		if bytes.Equal(payload, head.Payload) {
			t.Fatal("golden head lost its version field")
		}
		bumped := append(endedFrame(beginFrame(nil, 1, nil, kindHead), payload...), logBytes[bounds[0]:]...)
		_, err := Restore(bytes.NewReader(bumped))
		refusedByName(t, fmt.Sprintf("head of version %d", v), err)
		if !strings.Contains(err.Error(), "unsupported format version") {
			t.Fatalf("version %d: error %v lacks version message", v, err)
		}
	}
}
