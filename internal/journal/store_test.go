package journal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/faultfs"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// driveWorkload applies the seeded mixed workload to an already-built
// journaled market. Both the store under test and its flat-log
// reference run this with the same seed, so their record streams are
// identical byte for byte — the backbone of every equivalence check in
// this file.
func driveWorkload(t *testing.T, m *Market, seed uint64, ops int) {
	t.Helper()
	r := rng.New(seed)
	var (
		sellers             []market.SellerID
		buyers              []market.BuyerID
		datasets            []market.DatasetID
		nUploads, nComposed int
	)
	addSeller := func() {
		id := market.SellerID(fmt.Sprintf("s%d", len(sellers)))
		if m.RegisterSeller(id) == nil {
			sellers = append(sellers, id)
		}
	}
	addBuyer := func() {
		id := market.BuyerID(fmt.Sprintf("b%d", len(buyers)))
		if m.RegisterBuyer(id) == nil {
			buyers = append(buyers, id)
		}
	}
	upload := func() {
		if len(sellers) == 0 {
			return
		}
		id := market.DatasetID(fmt.Sprintf("d%d", nUploads))
		nUploads++
		if m.UploadDataset(sellers[r.Intn(len(sellers))], id) == nil {
			datasets = append(datasets, id)
		}
	}
	addSeller()
	addBuyer()
	upload()
	for op := 0; op < ops; op++ {
		switch r.Intn(11) {
		case 0:
			addSeller()
		case 1:
			addBuyer()
		case 2, 3:
			upload()
		case 4:
			if len(datasets) >= 2 {
				a := datasets[r.Intn(len(datasets))]
				b := datasets[r.Intn(len(datasets))]
				if a != b {
					id := market.DatasetID(fmt.Sprintf("c%d", nComposed))
					nComposed++
					if m.ComposeDataset(id, a, b) == nil {
						datasets = append(datasets, id)
					}
				}
			}
		case 5, 6, 7:
			if len(buyers) > 0 && len(datasets) > 0 {
				m.SubmitBid(buyers[r.Intn(len(buyers))],
					datasets[r.Intn(len(datasets))], r.Uniform(1, 150))
			}
		case 8:
			if len(buyers) > 0 && len(datasets) > 0 {
				n := 2 + r.Intn(4)
				reqs := make([]market.BidRequest, 0, n)
				for i := 0; i < n; i++ {
					reqs = append(reqs, market.BidRequest{
						Buyer:   buyers[r.Intn(len(buyers))],
						Dataset: datasets[r.Intn(len(datasets))],
						Amount:  r.Uniform(1, 150),
					})
				}
				m.SubmitBids(reqs)
			}
		case 9:
			m.Tick()
		case 10:
			if len(datasets) > 0 && len(sellers) > 0 {
				m.WithdrawDataset(sellers[r.Intn(len(sellers))],
					datasets[r.Intn(len(datasets))])
			}
		}
	}
}

// flatReference runs the same workload against a flat in-memory log
// and returns the log bytes plus the parsed events.
func flatReference(t *testing.T, cfg market.Config, seed uint64, ops int) ([]byte, []Event) {
	t.Helper()
	var buf bytes.Buffer
	jm, err := NewMarket(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events
}

// storeBody concatenates every segment's records (seghead lines
// stripped), which must reproduce the flat log byte for byte when no
// segment has been compacted away.
func storeBody(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, idx := range l.segIdx {
		data, err := os.ReadFile(filepath.Join(dir, segName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			out = append(out, data[i+1:]...)
		}
	}
	return out
}

func smallStoreConfig() StoreConfig {
	return StoreConfig{
		SegmentRecords:  16,
		SegmentBytes:    1 << 20,
		CheckpointEvery: 40,
		RetainSegments:  -1, // keep everything: byte-equivalence checks need the full chain
	}
}

// TestStoreRoundTrip: a store-backed market journals the exact same
// record stream as a flat log, rotates segments, writes checkpoints,
// and reopens to identical state with a bounded tail replay.
func TestStoreRoundTrip(t *testing.T) {
	const seed, ops = 7, 400
	cfg := testConfig()
	dir := t.TempDir()
	jm, replayed, err := OpenStore(cfg, dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("fresh store replayed %d", replayed)
	}
	driveWorkload(t, jm, seed, ops)
	wantSnap := jm.Snapshot()
	lastSeq := jm.LastSeq()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	flat, _ := flatReference(t, cfg, seed, ops)
	if got := storeBody(t, dir); !bytes.Equal(got, flat) {
		t.Fatalf("segment bodies (%d bytes) differ from flat log (%d bytes)", len(got), len(flat))
	}

	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.segIdx) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(l.segIdx))
	}
	if len(l.ckptSeqs) == 0 {
		t.Fatal("expected checkpoints")
	}

	jm2, replayed, err := OpenStore(cfg, dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer jm2.Close()
	if jm2.LastSeq() != lastSeq {
		t.Fatalf("reopen LastSeq=%d, want %d", jm2.LastSeq(), lastSeq)
	}
	if d := jm2.Snapshot().Diff(wantSnap); d != "" {
		t.Fatalf("reopen state: %s", d)
	}
	// Bounded tail: the replay may not exceed the records past the
	// newest checkpoint (modulo the covered records inside the final
	// scanned segments, bounded by segment size).
	maxTail := int(smallStoreConfig().CheckpointEvery + 2*smallStoreConfig().SegmentRecords)
	if replayed > maxTail {
		t.Fatalf("reopen replayed %d records, bound is %d", replayed, maxTail)
	}
	// And appending must still work.
	if err := jm2.RegisterBuyer("post-reopen"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCompaction: with default retention, sealed segments wholly
// covered by a checkpoint are deleted in the background while the
// market keeps appending, and recovery still lands on the full state.
func TestStoreCompaction(t *testing.T) {
	const seed, ops = 11, 400
	cfg := testConfig()
	dir := t.TempDir()
	sc := smallStoreConfig()
	sc.RetainSegments = 0
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	wantSnap := jm.Snapshot()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.segIdx[0] == 0 {
		t.Fatalf("no segment was compacted away (oldest still %s, %d segments)",
			segName(l.segIdx[0]), len(l.segIdx))
	}
	if n := len(l.ckptSeqs); n > 2 {
		t.Fatalf("%d checkpoint files retained, want <= 2", n)
	}
	m, _, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Diff(wantSnap); d != "" {
		t.Fatalf("post-compaction recovery: %s", d)
	}
}

// TestStoreGroupCommit: the store composes with group commit —
// concurrent appends rotate and checkpoint safely, and the reopened
// state matches.
func TestStoreGroupCommit(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	sc := smallStoreConfig()
	jm, _, err := OpenStore(cfg, dir, sc, WithGroupCommit(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := market.BuyerID(fmt.Sprintf("b%d-%d", w, i))
				if err := jm.RegisterBuyer(id); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				jm.SubmitBid(id, "d", 10+float64(i))
			}
		}(w)
	}
	wg.Wait()
	wantSnap := jm.Snapshot()
	lastSeq := jm.LastSeq()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	m, gotSeq, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != lastSeq {
		t.Fatalf("recovered seq %d, want %d", gotSeq, lastSeq)
	}
	if d := m.Snapshot().Diff(wantSnap); d != "" {
		t.Fatal(d)
	}
}

// writeFlatLog drives the seeded workload through a journal over a
// plain file — what a flat log is — and returns the path, the log's
// bytes and the state it describes.
func writeFlatLog(t *testing.T, cfg market.Config, seed uint64, ops int) (string, []byte, market.Snapshot) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flat.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jm, err := NewMarket(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	return path, mustRead(t, path), jm.Snapshot()
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// plantFile writes data as a fresh file named name and returns its path,
// so a migration of it lands its store in a scratch directory.
func plantFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// migrateAndOpen is the one door a flat log has left: Migrate, then
// OpenStore on the store it makes, flat+".d".
func migrateAndOpen(t *testing.T, flat string) *Market {
	t.Helper()
	dir, _, err := Migrate(flat)
	if err != nil {
		t.Fatalf("migrating %s: %v", flat, err)
	}
	sm, _, err := OpenStore(testConfig(), dir, smallStoreConfig())
	if err != nil {
		t.Fatalf("opening the migrated store: %v", err)
	}
	return sm
}

// TestStoreMigrateFlat: a flat log (current format) absorbed as
// segment 0 replays to the same state, subsequent appends land in the
// store, and migrating again changes nothing.
func TestStoreMigrateFlat(t *testing.T) {
	flatPath, flatBytes, wantSnap := writeFlatLog(t, testConfig(), 3, 120)
	dir := flatPath + ".d"
	sm := migrateAndOpen(t, flatPath)
	if d := sm.Snapshot().Diff(wantSnap); d != "" {
		t.Fatalf("migrated state: %s", d)
	}
	// Segment 0 holds the flat log's frames, re-framed unchanged, under
	// this build's seghead.
	if got := storeBody(t, dir); !bytes.Equal(got, flatBytes) {
		t.Fatal("migrated segment 0 is not the flat log verbatim")
	}
	if head, _, err := readSegHead(dir, 0); err != nil || head.V != FormatVersion {
		t.Fatalf("migrated seghead: version %d, err %v; want %d", head.V, err, FormatVersion)
	}
	if err := sm.RegisterBuyer("migrated"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, flatPath), flatBytes) {
		t.Fatal("migration touched the flat file")
	}
	// Migrating into a directory that holds segments must NOT re-migrate.
	if _, files, err := Migrate(flatPath); err != nil || files != 0 {
		t.Fatalf("second migration wrote %d files, err %v", files, err)
	}
	sm2, _, err := OpenStore(testConfig(), dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sm2.Close()
	if _, err := sm2.BuyerSpend("migrated"); err != nil {
		t.Fatalf("post-migration append lost on reopen: %v", err)
	}
}

// TestStoreMigrateLegacyV0 migrates the frozen pre-versioning fixture:
// its JSON lines become the frames this build writes, and the store
// rebuilds the fixture's snapshot.
func TestStoreMigrateLegacyV0(t *testing.T) { migrateLegacyFixture(t, legacyLogPath, legacySnapPath) }

// TestStoreMigrateV2ContinuesWithFrames: the frozen version-2 flat log
// migrates, and the store continues it with frames.
func TestStoreMigrateV2ContinuesWithFrames(t *testing.T) {
	migrateLegacyFixture(t, v2LogPath, v2SnapPath)
}

func migrateLegacyFixture(t *testing.T, path, snapPath string) {
	legacy := mustRead(t, path)
	flat := plantFile(t, "legacy.log", legacy)
	sm := migrateAndOpen(t, flat)
	got, err := json.MarshalIndent(sm.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), mustRead(t, snapPath)) {
		t.Fatal("migrated legacy log rebuilds a different market than its snapshot fixture")
	}
	// Record for record, the lines are the frames the v3 writer emits
	// for the same workload: the golden v3 log, byte for byte.
	if body := storeBody(t, flat+".d"); !bytes.Equal(body, mustRead(t, goldenLogPath)) {
		t.Fatal("migrated legacy log is not the v3 golden log")
	}
	if err := sm.RegisterBuyer("late"); err != nil {
		t.Fatal(err)
	}
	wantLate := sm.Snapshot()
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	m, _, _, err := RecoverDir(flat + ".d")
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Diff(wantLate); d != "" {
		t.Fatalf("migrated store continued with frames recovers differently: %s", d)
	}
	if !bytes.Equal(mustRead(t, flat), legacy) {
		t.Fatal("migration touched the legacy file")
	}
}

// TestStoreMigrateCompacted migrates testdata/compacted.flat: a flat log
// the parent of the commit that removed flat mode (d370139) wrote with
// OpenFile (20 records), compacted with CompactFile and then appended 11
// records to (5 bids, 6 ticks) — a snapshot head, then frames. No build
// can write a snapshot head any more, so the fixture is frozen;
// compacted.canonical is that build's
// Restore(...).Snapshot().Canonical() of the same file.
func TestStoreMigrateCompacted(t *testing.T) {
	data := mustRead(t, "testdata/compacted.flat")
	want := mustRead(t, "testdata/compacted.canonical")
	head := true
	if _, _, err := Scan(bytes.NewReader(data), 1, func(e Event) error {
		if head != (e.Op == OpSnapshot) {
			t.Fatalf("record %d is a %s", e.Seq, e.Op)
		}
		head = false
		return nil
	}); err != nil || head {
		t.Fatalf("fixture is not a snapshot-headed log: err %v", err)
	}
	restored, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalOf(t, "restored", restored.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("Restore of the compacted fixture differs from the build that wrote it")
	}
	flat := plantFile(t, "compacted.flat", data)
	sm := migrateAndOpen(t, flat)
	if got := canonicalOf(t, "migrated", sm.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("migrated compacted log differs from the build that wrote it")
	}
	if err := sm.RegisterBuyer("late"); err != nil {
		t.Fatal(err)
	}
	wantLate := canonicalOf(t, "continued", sm.Snapshot())
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	sm2 := migrateAndOpen(t, flat)
	defer sm2.Close()
	if got := canonicalOf(t, "reopened", sm2.Snapshot()); !bytes.Equal(got, wantLate) {
		t.Fatal("store begun from a compacted log reopens differently")
	}
}

// TestStoreMigrateDamagedFlat: what a crash can leave in a flat log
// migrates as its durable prefix; what no crash can produce is refused
// by name and migrates nothing.
func TestStoreMigrateDamagedFlat(t *testing.T) {
	flatBytes, events := flatReference(t, testConfig(), 5, 60)
	bounds := recordBoundaries(t, flatBytes, 1)

	t.Run("torn final record", func(t *testing.T) {
		flat := plantFile(t, "m.log", flatBytes[:len(flatBytes)-3])
		sm := migrateAndOpen(t, flat)
		prefix, err := Bootstrap(events[:len(events)-1])
		if err != nil {
			t.Fatal(err)
		}
		if d := sm.Snapshot().Diff(prefix.Snapshot()); d != "" {
			t.Fatalf("store does not hold the durable prefix: %s", d)
		}
		if got, want := storeBody(t, flat+".d"), flatBytes[:bounds[len(bounds)-2]]; !bytes.Equal(got, want) {
			t.Fatalf("segment 0 holds %d bytes, want the %d-byte durable prefix", len(got), len(want))
		}
		// Appends land after the prefix and survive a reopen.
		if err := sm.RegisterBuyer("late"); err != nil {
			t.Fatal(err)
		}
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
		sm2 := migrateAndOpen(t, flat)
		defer sm2.Close()
		if _, err := sm2.BuyerSpend("late"); err != nil {
			t.Fatalf("append after a migrated torn tail lost on reopen: %v", err)
		}
		if got := sm2.LastSeq(); got != int64(len(events)) {
			t.Fatalf("reopened at seq %d, want %d (prefix plus one append)", got, len(events))
		}
	})

	for _, n := range []int{0, 1, 5} {
		t.Run(fmt.Sprintf("genesis torn at %d bytes", n), func(t *testing.T) {
			sm := migrateAndOpen(t, plantFile(t, "m.log", flatBytes[:n]))
			defer sm.Close()
			if got := sm.LastSeq(); got != 1 {
				t.Fatalf("fresh store stands at seq %d, want 1 (its own genesis)", got)
			}
			if err := sm.RegisterBuyer("b"); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("mid-log corruption", func(t *testing.T) {
		rotten := append([]byte(nil), flatBytes...)
		rotten[bounds[3]+frameHeader+2] ^= 0x10 // inside the fifth record's body
		flat := plantFile(t, "m.log", rotten)
		_, _, err := Migrate(flat)
		var ce *CorruptError
		if !errors.As(err, &ce) || !errors.Is(err, ErrChecksum) || ce.File != filepath.Base(flat) || ce.Seq != 5 {
			t.Fatalf("migrating a rotted log: %v", err)
		}
		if l, err := listStoreDir(flat + ".d"); err != nil || len(l.segIdx) != 0 || len(l.tmps) != 0 {
			t.Fatalf("refused migration left files behind: %+v (err %v)", l, err)
		}
	})

	t.Run("leftover temp of a killed migration", func(t *testing.T) {
		flat := plantFile(t, "m.log", flatBytes)
		stray := filepath.Join(flat+".d", segName(0)+"-123.tmp")
		if err := os.Mkdir(flat+".d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stray, flatBytes[:len(flatBytes)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		sm := migrateAndOpen(t, flat)
		defer sm.Close()
		if got := sm.LastSeq(); got != int64(len(events)) {
			t.Fatalf("migrated to seq %d, want %d", got, len(events))
		}
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Fatalf("stray migration temp survived the open: %v", err)
		}
	})
}

// TestStorePathIsRegularFile: the first mistake a flat-log user makes
// is to hand the log to the option that wants a directory; every store
// reader says so and names the way out, where MkdirAll says "not a
// directory".
func TestStorePathIsRegularFile(t *testing.T) {
	flat, flatBytes, _ := writeFlatLog(t, testConfig(), 1, 10)
	for name, open := range map[string]func() error{
		"OpenStore": func() error {
			_, _, err := OpenStore(testConfig(), flat, smallStoreConfig())
			return err
		},
		"OpenFollower": func() error {
			_, err := OpenFollower(flat, smallStoreConfig())
			return err
		},
		"RecoverDir": func() error {
			_, _, _, err := RecoverDir(flat)
			return err
		},
		"VerifyDir": func() error { return VerifyDir(flat) },
	} {
		err := open()
		if !errors.Is(err, ErrNotStoreDir) {
			t.Fatalf("%s on a regular file: %v", name, err)
		}
		for _, want := range []string{"`marketctl journal-migrate " + flat + "`", flat + ".d"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not mention %q: %v", name, want, err)
			}
		}
	}
	if !bytes.Equal(mustRead(t, flat), flatBytes) {
		t.Fatal("a refused open touched the file")
	}
}

// TestStoreTornTailSyncFailure is the regression for the
// recovery-durability fix: opening a store whose final segment has a torn
// tail must fsync the truncated file and its directory, and a failure in
// that sync path must fail the open — silently resuming on a repair that
// might not be durable would risk mid-log corruption after the next
// crash.
func TestStoreTornTailSyncFailure(t *testing.T) {
	dir := t.TempDir()
	jm, _, err := OpenStore(testConfig(), dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a tick frame cut short of its last byte.
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := endedFrame(beginFrame(nil, 3, []byte("torn-tick"), kindCommand), tickBody...)
	if _, err := f.Write(torn[:len(torn)-1]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	old := syncFileHook
	syncFileHook = func(*os.File) error { return faultfs.ErrInjected }
	_, _, err = OpenStore(testConfig(), dir, smallStoreConfig())
	syncFileHook = old
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("open with failing tail-repair sync: err=%v, want ErrInjected", err)
	}
	// With the sync healthy again the same open succeeds and the torn
	// bytes are gone for good.
	jm2, _, err := OpenStore(testConfig(), dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer jm2.Close()
	if got := jm2.LastSeq(); got != 2 {
		t.Fatalf("reopened at seq %d, want 2", got)
	}
	if bytes.Contains(mustRead(t, seg), []byte("torn-tick")) {
		t.Fatal("torn bytes survived repair")
	}
}

// reseedFollower is a follower's snapshot catch-up over the store in
// dir: snapshot restored in memory at seq, then moved onto the store in
// place of old.
func reseedFollower(old *Market, dir string, sc StoreConfig, snapshot []byte, seq int64) (*Market, error) {
	m, err := RestoreFollower(snapshot, seq)
	if err != nil {
		return nil, err
	}
	return ReseedFollower(old, m, dir, sc, snapshot)
}

// TestFollowerStoreRoundTrip: reseed a follower's store from a
// snapshot, commit a tail through its stage, reopen cold, resume from
// the local seq.
func TestFollowerStoreRoundTrip(t *testing.T) {
	leader, err := market.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(leader.RegisterSeller("s"), leader.UploadDataset("s", "d")); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc := StoreConfig{SegmentRecords: 4, CheckpointEvery: 8, RetainSegments: -1}
	if m0, err := OpenFollower(dir, sc); m0 != nil || err != nil {
		t.Fatalf("empty follower store returned market=%v, %v", m0, err)
	}
	m, err := reseedFollower(nil, dir, sc, canonicalOf(t, "leader", leader.Snapshot()), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Commit a tail, crossing a rotation.
	for i := 0; i < 10; i++ {
		if err := m.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.store.mu.Lock()
	got := m.store.appliedSeq
	m.store.mu.Unlock()
	if got != 20 || m.LastSeq() != 20 {
		t.Fatalf("store at seq %d, journal at %d; want 20", got, m.LastSeq())
	}
	want := m.Canonical()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenFollower(dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.LastSeq() != 20 {
		t.Fatalf("cold restart at seq %d, want 20", m2.LastSeq())
	}
	if !bytes.Equal(m2.Canonical(), want) {
		t.Fatalf("cold restart state: %s", m2.Snapshot().Diff(m.Snapshot()))
	}
	// The log continues at the next seq.
	if _, err := m2.Tick(); err != nil || m2.LastSeq() != 21 {
		t.Fatalf("tick after the cold restart: %v, at seq %d; want 21", err, m2.LastSeq())
	}
}

// TestFollowerReseedWaitsOutAnInFlightCheckpoint: a reseed closes the
// follower's old store first, and that waits until a checkpoint still
// being written is released — so the wipe cannot take
// that checkpoint's temporary file, and an old-history checkpoint cannot
// land in the new chain. Afterwards the directory holds exactly the
// leader's checkpoint and a segment starting past it. Run it under
// -race.
func TestFollowerReseedWaitsOutAnInFlightCheckpoint(t *testing.T) {
	leader, err := market.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(leader.RegisterSeller("s"), leader.UploadDataset("s", "d")); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sc := StoreConfig{SegmentRecords: 4, CheckpointEvery: 1000}
	old, err := reseedFollower(nil, dir, sc, canonicalOf(t, "first", leader.Snapshot()), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := old.RegisterBuyer(market.BuyerID(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Put the store where committed leaves it when a cadence checkpoint
	// is due: the cut taken, the write not yet landed.
	s, cut := old.Store(), old.Market.Stage().Cut()
	done := make(chan struct{})
	s.mu.Lock()
	s.ckptDone = done
	s.mu.Unlock()
	s.wg.Add(1)

	for i := 0; i < 30; i++ {
		if err := leader.RegisterBuyer(market.BuyerID(fmt.Sprintf("new%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const seq = 40
	snapshot := canonicalOf(t, "second", leader.Snapshot())
	var m *Market
	reseeded := make(chan error, 1)
	go func() {
		var err error
		m, err = reseedFollower(old, dir, sc, snapshot, seq)
		reseeded <- err
	}()
	stillWaiting := func(what string) {
		t.Helper()
		select {
		case err := <-reseeded:
			t.Fatalf("the reseed returned (%v) while %s", err, what)
		case <-time.After(50 * time.Millisecond):
		}
	}
	stillWaiting("a checkpoint was being cut")
	// Land the old-history checkpoint as Store.checkpoint would, late.
	if err := writeCheckpointFile(dir, 9, cut.WriteCanonical); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	close(done)
	s.ckptDone = nil
	s.mu.Unlock()
	stillWaiting("a checkpoint write was in flight")
	s.wg.Done()
	if err := <-reseeded; err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Checkpoints) != 1 || inv.Checkpoints[0].Seq != seq || len(inv.Segments) != 1 || inv.Segments[0].Base != seq+1 {
		t.Fatalf("after the reseed the store holds checkpoints %+v and segments %+v; want the leader's at %d and one segment from %d",
			inv.Checkpoints, inv.Segments, seq, seq+1)
	}
	if l, err := listStoreDir(dir); err != nil || len(l.tmps) != 0 {
		t.Fatalf("temporary files after the reseed: %v, %v", l, err)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Canonical(), leader.Canonical()) || m.LastSeq() != seq {
		t.Fatalf("reseeded market at seq %d is not the leader's state at %d", m.LastSeq(), seq)
	}
}

// TestStoreInventory pins the inventory surfaces: the live Inventory
// and the offline InspectDir agree on segments, checkpoints, coverage,
// and seq bounds.
func TestStoreInventory(t *testing.T) {
	const seed, ops = 5, 300
	cfg := testConfig()
	dir := t.TempDir()
	jm, _, err := OpenStore(cfg, dir, smallStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	lastSeq := jm.LastSeq()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waited out in-flight checkpoints, so the live metadata and
	// the on-disk truth have converged.
	live := jm.Store().Inventory()
	if live.LastSeq != lastSeq {
		t.Fatalf("live inventory LastSeq=%d, want %d", live.LastSeq, lastSeq)
	}
	if live.FirstSeq != 1 || len(live.Segments) < 3 || live.LastCheckpoint == 0 {
		t.Fatalf("implausible live inventory: %+v", live)
	}
	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if inv.LastSeq != lastSeq || inv.FirstSeq != live.FirstSeq || inv.LastCheckpoint != live.LastCheckpoint {
		t.Fatalf("InspectDir disagrees with live inventory:\noffline %+v\nlive    %+v", inv, live)
	}
	if len(inv.Segments) != len(live.Segments) {
		t.Fatalf("segment counts differ: offline %d, live %d", len(inv.Segments), len(live.Segments))
	}
	var sawCovered bool
	for i, seg := range inv.Segments {
		if seg.Records != live.Segments[i].Records || seg.Base != live.Segments[i].Base {
			t.Fatalf("segment %s: offline %+v, live %+v", seg.Name, seg, live.Segments[i])
		}
		if seg.Covered {
			sawCovered = true
			if !seg.Sealed {
				t.Fatalf("active segment %s reported covered", seg.Name)
			}
		}
	}
	if !sawCovered {
		t.Fatal("no segment reported covered despite checkpoints")
	}
	if !strings.HasPrefix(inv.Segments[0].Name, "0000") {
		t.Fatalf("unexpected segment name %q", inv.Segments[0].Name)
	}
}

// TestStoreCheckpointOnly: with checkpointing disabled the store still
// rotates and recovers (by replaying everything), proving the
// checkpoint path is an optimization, not a correctness dependency.
// TestStoreManualCheckpoint: Store.Checkpoint writes a synchronous
// checkpoint at the current committed seq even with the background
// cadence disabled, a second call with nothing new is a no-op, and a
// reopened store replays zero tail records past it.
func TestStoreManualCheckpoint(t *testing.T) {
	const seed, ops = 17, 120
	cfg := testConfig()
	dir := t.TempDir()
	sc := smallStoreConfig()
	sc.CheckpointEvery = -1
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := jm.LastSeq()
	if got := jm.Store().LastCheckpoint(); got != want {
		t.Fatalf("manual checkpoint landed at seq %d, committed seq %d", got, want)
	}
	inv := jm.Store().Inventory()
	if len(inv.Checkpoints) != 1 {
		t.Fatalf("%d checkpoint files after one manual checkpoint", len(inv.Checkpoints))
	}
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again := jm.Store().Inventory(); len(again.Checkpoints) != 1 {
		t.Fatalf("no-op re-checkpoint wrote %d files", len(again.Checkpoints))
	}
	snap := jm.Snapshot()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	m, seq, replayed, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != want || replayed != 0 {
		t.Fatalf("recovery reached seq %d replaying %d records, want seq %d with 0", seq, replayed, want)
	}
	if d := m.Snapshot().Diff(snap); d != "" {
		t.Fatal(d)
	}

	// A closed store refuses further checkpoints.
	jm2, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	st := jm2.Store()
	if err := jm2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
}

func TestStoreNoCheckpoints(t *testing.T) {
	const seed, ops = 13, 200
	cfg := testConfig()
	dir := t.TempDir()
	sc := smallStoreConfig()
	sc.CheckpointEvery = -1
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	want := jm.Snapshot()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.ckptSeqs) != 0 {
		t.Fatalf("checkpoints written while disabled: %v", l.ckptSeqs)
	}
	jm2, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer jm2.Close()
	if d := jm2.Snapshot().Diff(want); d != "" {
		t.Fatal(d)
	}
}

// TestStoreCheckpointWaitsOutBackgroundWrite: a synchronous Checkpoint
// issued while the cadence's background write is in flight waits for
// that write itself — no polling — and returns with a checkpoint at the
// newest committed seq, records appended meanwhile included.
func TestStoreCheckpointWaitsOutBackgroundWrite(t *testing.T) {
	sc := smallStoreConfig()
	sc.CheckpointEvery = 8
	jm, _, err := OpenStore(testConfig(), t.TempDir(), sc)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	st := jm.Store()
	overlapped := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 11; i++ { // crosses the cadence once, then three more records
			if err := jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		st.mu.Lock()
		if st.ckptDone != nil {
			overlapped++
		}
		st.mu.Unlock()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got, want := st.LastCheckpoint(), jm.LastSeq(); got != want {
			t.Fatalf("round %d: Checkpoint returned with the newest checkpoint at seq %d, committed seq %d", round, got, want)
		}
	}
	if overlapped == 0 {
		t.Skip("no background checkpoint was ever still in flight; nothing was waited out")
	}
}

// TestStoreCheckpointIdentity pins what a checkpoint is cut from: after
// a mixed single-writer run, the snapshot Store.Checkpoint takes of the
// serving market is byte-identical to the live market's, to what
// RecoverDir restores from that checkpoint, and to a full replay of the
// segments with the checkpoint deleted — and again after a reopen,
// where the serving market is the recovered one.
func TestStoreCheckpointIdentity(t *testing.T) {
	const seed, ops = 23, 400
	cfg := testConfig()
	dir := t.TempDir()
	sc := smallStoreConfig()
	sc.CheckpointEvery = -1
	sc.RetainSegments = -1

	canonical := func(what string, s market.Snapshot) []byte { return canonicalOf(t, what, s) }
	check := func(stage string, jm *Market) {
		t.Helper()
		if err := jm.Store().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		seq := jm.LastSeq()
		snap, err := readCheckpointFile(dir, seq)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ckpt := canonical(stage+": checkpoint", snap)
		if live := canonical(stage+": live", jm.Snapshot()); !bytes.Equal(ckpt, live) {
			t.Fatalf("%s: checkpoint differs from the live market: %s", stage, snap.Diff(jm.Snapshot()))
		}
		m, gotSeq, replayed, err := RecoverDir(dir)
		if err != nil || gotSeq != seq || replayed != 0 {
			t.Fatalf("%s: RecoverDir = seq %d, %d replayed, %v; want seq %d from the checkpoint alone", stage, gotSeq, replayed, err, seq)
		}
		if !bytes.Equal(ckpt, canonical(stage+": recovered", m.Snapshot())) {
			t.Fatalf("%s: checkpoint differs from its own recovery", stage)
		}
		if err := os.Remove(filepath.Join(dir, ckptName(seq))); err != nil {
			t.Fatal(err)
		}
		m, gotSeq, replayed, err = RecoverDir(dir)
		if err != nil || gotSeq != seq || int64(replayed) != seq {
			t.Fatalf("%s: full replay = seq %d, %d replayed, %v; want all %d records", stage, gotSeq, replayed, err, seq)
		}
		if !bytes.Equal(ckpt, canonical(stage+": replayed", m.Snapshot())) {
			t.Fatalf("%s: checkpoint differs from a full replay: %s", stage, snap.Diff(m.Snapshot()))
		}
	}

	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, seed, ops)
	check("grown from genesis", jm)
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	jm, _, err = OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	for i := 0; i < 40; i++ {
		if _, err := jm.Tick(); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 6; b++ {
			jm.SubmitBid(market.BuyerID(fmt.Sprintf("b%d", b)), market.DatasetID(fmt.Sprintf("d%d", i%5)), 30+float64(7*i%90))
		}
	}
	check("recovered on reopen", jm)
}

// TestStorePoisonedNeverCheckpoints: once a segment write fails, the
// serving market has applied a command the segments do not hold, and it
// is the only copy of the state — so the store must refuse to checkpoint
// it, on the cadence, on demand and on Close, and recovery must come
// back to exactly what was durable before the failure.
func TestStorePoisonedNeverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	jm, _, err := OpenStore(testConfig(), dir, StoreConfig{CheckpointEvery: 2, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{jm.RegisterSeller("s"), jm.UploadDataset("s", "d"), jm.RegisterBuyer("b")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	durable := canonicalOf(t, "live", jm.Snapshot())
	seq := jm.LastSeq()

	jm.store.mu.Lock()
	jm.store.active.Close() // the disk goes away under the store
	jm.store.mu.Unlock()
	if err := jm.RegisterBuyer("late"); err == nil {
		t.Fatal("a write to a closed segment was acknowledged")
	}
	if _, err := jm.BuyerSpend("late"); !errors.Is(err, market.ErrUnknownBuyer) {
		t.Fatalf("the unpersisted registration is visible: %v", err)
	}
	if err := jm.Store().Checkpoint(); err == nil {
		t.Fatal("a poisoned store took a checkpoint on demand")
	}
	if err := jm.Close(); err == nil {
		t.Fatal("closing a poisoned store reported success")
	}

	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if inv.LastCheckpoint > seq {
		t.Fatalf("checkpoint at seq %d past the last durable record %d", inv.LastCheckpoint, seq)
	}
	m, gotSeq, _, err := RecoverDir(dir)
	if err != nil || gotSeq != seq {
		t.Fatalf("RecoverDir = seq %d, %v; want %d", gotSeq, err, seq)
	}
	if !bytes.Equal(durable, canonicalOf(t, "recovered", m.Snapshot())) {
		t.Fatal("recovery after a poisoned shutdown differs from the last durable state")
	}
}

// booksOf returns a market of the given number of buyers, three bids
// each over eight datasets — wins and losses, so all three of a buyer's
// per-dataset maps fill — and its cut.
func booksOf(t *testing.T, buyers int) (*market.Market, *command.Cut) {
	t.Helper()
	m := market.MustNew(testConfig())
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 8; d++ {
		if err := m.UploadDataset("s", market.DatasetID(fmt.Sprintf("d%d", d))); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < buyers; b++ {
		id := market.BuyerID(fmt.Sprintf("buyer-%04d", b))
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			if _, err := m.SubmitBid(id, market.DatasetID(fmt.Sprintf("d%d", (b+d)%8)), float64(5+(b*7+d*31)%120)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if snap := m.Snapshot(); len(snap.Buyers) != buyers || len(snap.Transactions) == 0 {
		t.Fatalf("market of %d buyers snapshots %d buyers and %d sales", buyers, len(snap.Buyers), len(snap.Transactions))
	}
	return m, cutOf(m)
}

func cutOf(m *market.Market) *command.Cut {
	s := m.Stage()
	s.Lock()
	defer s.Unlock()
	return s.Cut()
}

// TestCheckpointAllocsAreFlat: writing a checkpoint streams a cut
// through one buffer and one set of per-buyer maps, so what it allocates
// does not grow with the books: a 4 096-buyer market costs at most twice
// what a 64-buyer one does (JSON cost several allocations per buyer and
// dataset pair).
func TestCheckpointAllocsAreFlat(t *testing.T) {
	dir := t.TempDir()
	checkpointAllocs := func(buyers int) float64 {
		_, cut := booksOf(t, buyers)
		return testing.AllocsPerRun(3, func() {
			if err := writeCheckpointFile(dir, int64(buyers), cut.WriteCanonical); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := checkpointAllocs(64), checkpointAllocs(4096)
	if large > 2*small {
		t.Fatalf("checkpointing 4096 buyers allocates %.0f times, 64 buyers %.0f: want within 2x", large, small)
	}
	t.Logf("allocations per checkpoint: %.0f at 64 buyers, %.0f at 4096", small, large)
}

// TestRecoverAllocsPerBuyer: a recovery allocates, per registered buyer,
// only the ID string the state keeps — the account comes from a chunk,
// the view cell from a slab, and the registry is sized once for the
// population — so stores that hold the same bids and 64 or 4 096 buyers
// differ by at most 1.1 allocations per extra buyer. A sync.Map registry
// and a boxed command per registration read about 4.6.
func TestRecoverAllocsPerBuyer(t *testing.T) {
	recoverAllocs := func(buyers int) float64 {
		dir := t.TempDir()
		jm, _, err := OpenStore(testConfig(), dir, StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		err = jm.RegisterSeller("s")
		for d := 0; err == nil && d < 8; d++ {
			err = jm.UploadDataset("s", market.DatasetID(fmt.Sprintf("d%d", d)))
		}
		for b := 0; err == nil && b < buyers; b++ {
			err = jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("buyer-%04d", b)))
		}
		for b := 0; err == nil && b < 64; b++ { // the same bids in both stores
			for d := 0; err == nil && d < 3; d++ {
				_, err = jm.SubmitBid(market.BuyerID(fmt.Sprintf("buyer-%04d", b)), market.DatasetID(fmt.Sprintf("d%d", (b+d)%8)), float64(5+(b*7+d*31)%120))
			}
		}
		records := int(jm.LastSeq())
		if err = cmp.Or(err, jm.Close()); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if m, _, replayed, err := RecoverDir(dir); err != nil || replayed != records {
				t.Fatalf("recovering %d buyers replayed %d records: %v", buyers, replayed, err)
			} else if _, err := m.BuyerSpend(market.BuyerID(fmt.Sprintf("buyer-%04d", buyers-1))); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := recoverAllocs(64), recoverAllocs(4096)
	perBuyer := (large - small) / (4096 - 64)
	t.Logf("allocations per recovery: %.0f at 64 buyers, %.0f at 4096; %.3f per extra buyer", small, large, perBuyer)
	if perBuyer > 1.1 {
		t.Fatalf("recovery allocates %.3f times per extra buyer, budget 1.1 (the ID string)", perBuyer)
	}
}

// TestCutAllocsAreFlat: what the commit stage does for a checkpoint —
// the cut — copies the books into flat slices, so its allocations do
// not grow with the buyers either (a snapshot tree makes three maps per
// buyer).
func TestCutAllocsAreFlat(t *testing.T) {
	cutAllocs := func(buyers int) float64 {
		m, _ := booksOf(t, buyers)
		return testing.AllocsPerRun(3, func() { cutOf(m) })
	}
	small, large := cutAllocs(64), cutAllocs(4096)
	if large > 2*small {
		t.Fatalf("cutting 4096 buyers allocates %.0f times, 64 buyers %.0f: want within 2x", large, small)
	}
	t.Logf("allocations per cut: %.0f at 64 buyers, %.0f at 4096", small, large)
}

// TestTailRecords: the catch-up read delivers exactly the records after
// afterSeq through uptoSeq, across segments, stopping at the written
// seq when asked for more; and once compaction has deleted a segment
// holding records it was asked for, it says so instead of starting later.
func TestTailRecords(t *testing.T) {
	jm, _, err := OpenStore(testConfig(), t.TempDir(), StoreConfig{SegmentRecords: 4, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	for i := 0; i < 30; i++ {
		if err := jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, last := jm.Store(), jm.LastSeq()
	tail := func(after, upto int64) ([]int64, error) {
		var seqs []int64
		err := st.TailRecords(after, upto, func(rec Record) error {
			seqs = append(seqs, rec.Seq)
			return nil
		})
		return seqs, err
	}
	for _, c := range []struct{ after, upto, from, to int64 }{
		{5, 17, 6, 17},                       // across segments
		{last - 3, last + 9, last - 2, last}, // past the written seq
		{9, 9, 0, -1},                        // empty
	} {
		seqs, err := tail(c.after, c.upto)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.to - c.from + 1; int64(len(seqs)) != n || n > 0 && (seqs[0] != c.from || seqs[n-1] != c.to) {
			t.Fatalf("TailRecords(%d, %d) read %v, want %d through %d", c.after, c.upto, seqs, c.from, c.to)
		}
	}

	if err := st.Checkpoint(); err != nil { // compacts the sealed segments it covers
		t.Fatal(err)
	}
	if _, err := tail(5, last); !errors.Is(err, ErrSegmentMissing) {
		t.Fatalf("TailRecords over compacted segments: %v, want ErrSegmentMissing", err)
	}
}

// TestCheckRecovery: a store's recovery rebuilds its live market, and a
// store whose live market priced through perturbed engines
// (TestPerturbPrices, before any bid) — so its records replay to other
// prices — is refused by name, with the sections that differ.
func TestCheckRecovery(t *testing.T) {
	sc := smallStoreConfig()
	sc.CheckpointEvery = -1 // replay every record, so each perturbed sale is re-priced
	for _, perturb := range []bool{false, true} {
		dir := t.TempDir()
		jm, _, err := OpenStore(testConfig(), dir, sc)
		if err != nil {
			t.Fatal(err)
		}
		defer jm.Close()
		if perturb {
			jm.Market.TestPerturbPrices(func(p float64) float64 { return p + 1 })
		}
		driveWorkload(t, jm, 7, 400)
		if jm.TxCount() == 0 {
			t.Fatal("no sales: a perturbed price would change nothing")
		}
		err = CheckRecovery(dir, jm)
		switch {
		case !perturb && err != nil:
			t.Fatal(err)
		case perturb && (err == nil || !strings.Contains(err.Error(), "recovery does not rebuild live state: snapshots differ in:")):
			t.Fatalf("perturbed live market: %v, want recovery does not rebuild live state", err)
		}
	}
}
