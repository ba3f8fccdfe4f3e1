package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// bidLog returns a v3 log of a genesis head plus n bid frames (written
// through a bare writer: nothing is applied).
func bidLog(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := Event{Op: OpBid, Buyer: fmt.Sprintf("buyer-%d", i%7), Dataset: "dataset", Amount: float64(10 + i%90)}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorrupt asserts err is a *CorruptError for sentinel at the given
// expected seq and byte offset.
func wantCorrupt(t *testing.T, label string, err, sentinel error, seq, offset int64) {
	t.Helper()
	var ce *CorruptError
	if !errors.Is(err, sentinel) || !errors.As(err, &ce) {
		t.Fatalf("%s: got %v, want a CorruptError wrapping %v", label, err, sentinel)
	}
	if ce.Seq != seq || ce.Offset != offset {
		t.Fatalf("%s: error locates seq %d at byte %d, want seq %d at byte %d (%v)", label, ce.Seq, ce.Offset, seq, offset, err)
	}
}

// TestTornVersusCorrupt pins the reader's one rule: an incomplete final
// frame is a torn tail and is dropped; every other anomaly is a hard,
// located error wherever it sits — the final frame included.
func TestTornVersusCorrupt(t *testing.T) {
	log := bidLog(t, 5)
	bounds := recordBoundaries(t, log, 1)
	if len(bounds) != 6 {
		t.Fatalf("%d records, want 6", len(bounds))
	}
	scan := func(b []byte) (n int, durable int64, torn bool, err error) {
		durable, torn, err = ScanRecords(bytes.NewReader(b), 1, func(Record) error { n++; return nil })
		return
	}

	// Every proper prefix is a clean log or a torn tail, never an error.
	for cut := 0; cut < len(log); cut++ {
		n, durable, torn, err := scan(log[:cut])
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		want := 0
		for want < len(bounds) && bounds[want] <= cut {
			want++
		}
		wantDurable := 0
		if want > 0 {
			wantDurable = bounds[want-1]
		}
		if n != want || durable != int64(wantDurable) || torn != (cut != wantDurable) {
			t.Fatalf("prefix of %d bytes: %d records, durable %d, torn %v; want %d, %d, %v", cut, n, durable, torn, want, wantDurable, cut != wantDurable)
		}
	}

	// One flipped bit anywhere in a frame's checksum or body — the final
	// frame's too — is a checksum failure naming the record.
	for rec := 1; rec < len(bounds); rec++ {
		start, end := bounds[rec-1], bounds[rec]
		for _, off := range []int{start + 5, start + frameHeader, end - 1} {
			bad := bytes.Clone(log)
			bad[off] ^= 0x10
			_, _, _, err := scan(bad)
			wantCorrupt(t, fmt.Sprintf("record %d, bit flipped at byte %d", rec+1, off), err, ErrChecksum, int64(rec+1), int64(start))
		}
	}

	// A flipped length: mid-log the frame swallows its successors and
	// fails its checksum; when it claims more than the log holds — the
	// final frame, or any frame with a high bit set — it is told from a
	// torn write by verifying one length bit shorter.
	bad := bytes.Clone(log)
	bad[bounds[1]+1] ^= 0x01
	if _, _, _, err := scan(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped length: %v, want ErrChecksum", err)
	}
	for _, rec := range []int{2, 5} {
		bad = bytes.Clone(log)
		bad[bounds[rec-1]+2] ^= 0x40 // the frame now claims 16 KiB more than the log holds
		_, _, _, err := scan(bad)
		wantCorrupt(t, fmt.Sprintf("oversized length in record %d", rec+1), err, ErrChecksum, int64(rec+1), int64(bounds[rec-1]))
	}
	// The hole that is left: a length wrong in two bits, overrunning the
	// log, reads as a torn tail.
	bad = bytes.Clone(log)
	bad[bounds[4]+2] ^= 0x41
	if n, _, torn, err := scan(bad); err != nil || !torn || n != 5 {
		t.Fatalf("two-bit oversized final length: %d records, torn %v, err %v; want the documented torn-tail reading", n, torn, err)
	}

	// A length no record may have is refused before any read is sized by it.
	bad = bytes.Clone(log)
	binary.LittleEndian.PutUint32(bad[bounds[2]+1:], maxFrameBody+1)
	_, _, _, err := scan(bad)
	wantCorrupt(t, "giant length", err, ErrBadEvent, 4, int64(bounds[2]))

	// A byte that opens neither a frame nor a JSON line — at the tail too.
	_, _, _, err = scan(append(bytes.Clone(log), 'x'))
	wantCorrupt(t, "stray tail byte", err, ErrBadEvent, 7, int64(len(log)))

	// A sequence number padded to two bytes, under a checksum that
	// verifies, is not a second spelling of record 3: the body is refused.
	padded := append([]byte{frameTag, 0, 0, 0, 0, 0, 0, 0, 0, 0x83, 0x00}, log[bounds[1]+frameHeader+1:bounds[2]]...)
	endFrame(padded, 0)
	bad = append(append(bytes.Clone(log[:bounds[1]]), padded...), log[bounds[2]:]...)
	_, _, _, err = scan(bad)
	wantCorrupt(t, "padded seq", err, ErrBadEvent, 3, int64(bounds[1]))

	// A dropped record is a sequence gap.
	gapped := append(bytes.Clone(log[:bounds[2]]), log[bounds[3]:]...)
	_, _, _, err = scan(gapped)
	wantCorrupt(t, "gap", err, ErrSeqGap, 4, int64(bounds[2]))

	// The skip-CRC canary hook really does disarm the check.
	bad = bytes.Clone(log)
	bad[bounds[2]-1] ^= 0x01 // last amount byte of record 3
	TestSkipChecksum(true)
	n, _, _, err := scan(bad)
	TestSkipChecksum(false)
	if err != nil || n != 6 {
		t.Fatalf("with checksums skipped: %d records, err %v", n, err)
	}
}

// TestScanAllocationGuard: scanning and decoding a bid frame costs at
// most three allocations — the two ID strings and the boxed command.
// Nothing per record comes from the reader itself.
func TestScanAllocationGuard(t *testing.T) {
	const n = 2000
	log := bidLog(t, n)
	rd := bytes.NewReader(log)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(log)
		seen := 0
		if _, _, err := ScanRecords(rd, 1, func(rec Record) error {
			if rec.Head {
				return nil
			}
			seen++
			_, err := command.DecodeBinary(rec.Payload)
			return err
		}); err != nil || seen != n {
			t.Fatalf("scan: %d records, err %v", seen, err)
		}
	})
	// The reader's own allocations (its bufio buffer, the frame buffer)
	// are a constant per scan.
	if allocs > 3*n+16 {
		t.Fatalf("scan+decode of %d bid frames allocates %.0f times, want <= 3 per record", n, allocs)
	}
}

// v2storeScript is the op script behind testdata/v2store, which was
// written by the last version-2 build (the parent of the commit that
// introduced frames) with SegmentRecords 12, a manual checkpoint after
// seq 11 and no checkpoint on close, and is frozen: two segments of
// JSON lines (seqs 1–12 and 13–20) and one trailer-less checkpoint.
func v2storeScript(t *testing.T, m *market.Market) {
	t.Helper()
	for _, cmd := range []command.Command{
		command.RegisterSeller{Seller: "acme"},
		command.RegisterSeller{Seller: "globex"},
		command.UploadDataset{Seller: "acme", Dataset: "weather"},
		command.UploadDataset{Seller: "globex", Dataset: "traffic"},
		command.ComposeDataset{Dataset: "weather+traffic", Constituents: []command.DatasetID{"weather", "traffic"}},
		command.RegisterBuyer{Buyer: "alice"},
		command.RegisterBuyer{Buyer: "bob"},
		command.RegisterBuyer{Buyer: "carol"},
		command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 55},
		command.BidBatch{Bids: []command.SubmitBid{
			{Buyer: "bob", Dataset: "traffic", Amount: 70},
			{Buyer: "alice", Dataset: "weather+traffic", Amount: 130},
		}},
		command.Tick{},
		command.SubmitBid{Buyer: "bob", Dataset: "weather", Amount: 95},
		command.SubmitBid{Buyer: "carol", Dataset: "traffic", Amount: 80},
		command.Tick{},
		command.RegisterSeller{Seller: "initech"},
		command.UploadDataset{Seller: "initech", Dataset: "logs"},
		command.WithdrawDataset{Seller: "initech", Dataset: "logs"},
		command.SubmitBid{Buyer: "carol", Dataset: "weather", Amount: 65},
		command.Tick{},
	} {
		if _, err := m.Apply(cmd); err != nil {
			t.Fatalf("v2store script: %s: %v", cmd.Op(), err)
		}
	}
}

// migratedCopy copies the frozen store src and migrates the copy, which
// must take files rewritten files.
func migratedCopy(t *testing.T, src string, files int) string {
	t.Helper()
	dir := copyStoreDir(t, src)
	if _, n, err := Migrate(dir); err != nil || n != files {
		t.Fatalf("migrating a copy of %s: %d files rewritten, err %v; want %d", src, n, err, files)
	}
	return dir
}

// TestV2StoreUpgradesInPlace: a store directory written by a version-2
// build — trailer-less checkpoint, JSON-line segments — opens under this
// one once migrated, then appends, rotates, checkpoints and recovers to
// exactly the state the same commands build in memory.
func TestV2StoreUpgradesInPlace(t *testing.T) {
	dir := migratedCopy(t, "testdata/v2store", 3)
	ref := market.MustNew(testConfig())
	v2storeScript(t, ref)
	old := mustRead(t, filepath.Join(dir, segName(1)))

	sc := StoreConfig{SegmentRecords: 12, CheckpointEvery: -1, RetainSegments: -1}
	jm, replayed, err := OpenStore(market.Config{}, dir, sc)
	if err != nil {
		t.Fatalf("opening the migrated v2 store: %v", err)
	}
	if jm.LastSeq() != 20 || replayed != 9 {
		t.Fatalf("migrated v2 store opened at seq %d after replaying %d records, want 20 and 9", jm.LastSeq(), replayed)
	}
	if d := jm.Snapshot().Diff(ref.Snapshot()); d != "" {
		t.Fatalf("migrated v2 store recovered differently from its script: %s", d)
	}

	// Both markets take the same continuation: enough records to finish
	// segment 1 and rotate, with a checkpoint in the middle.
	step := func(i int) command.Command {
		switch i % 3 {
		case 0:
			return command.RegisterBuyer{Buyer: command.BuyerID(fmt.Sprintf("late-%d", i))}
		case 1:
			return command.SubmitBid{Buyer: command.BuyerID(fmt.Sprintf("late-%d", i-1)), Dataset: "traffic", Amount: float64(40 + i)}
		default:
			return command.Tick{}
		}
	}
	for i := 0; i < 15; i++ {
		if _, err := jm.Apply(step(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if _, err := ref.Apply(step(i)); err != nil {
			t.Fatal(err)
		}
		if i == 8 {
			if err := jm.Store().Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Segments) != 3 || inv.Segments[1].Records != 12 || inv.LastSeq != 35 || inv.LastCheckpoint != 29 {
		t.Fatalf("upgraded store inventory: %+v", inv)
	}
	if seg1 := mustRead(t, filepath.Join(dir, segName(1))); !bytes.HasPrefix(seg1, old) || seg1[len(old)] != frameTag {
		t.Fatal("segment 1 is not the migrated segment continued with frames")
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("upgraded store does not verify: %v", err)
	}

	// Recovery from the new checkpoint, and — with it gone — from the
	// migrated v2 checkpoint, both rebuild the same bytes.
	for _, dropNew := range []bool{false, true} {
		clone := copyStoreDir(t, dir)
		if dropNew {
			if err := os.Remove(filepath.Join(clone, ckptName(29))); err != nil {
				t.Fatal(err)
			}
		}
		m, seq, _, err := RecoverDir(clone)
		if err != nil {
			t.Fatalf("recover (new checkpoint dropped: %v): %v", dropNew, err)
		}
		got, err := m.Snapshot().Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if seq != 35 || !bytes.Equal(got, want) {
			t.Fatalf("recover (new checkpoint dropped: %v): seq %d, state differs from the reference", dropNew, seq)
		}
	}
}

// TestV3StoreUpgradesInPlace: a store written by the last build that
// checkpointed in JSON (testdata/v3store: v2storeScript again, two frame
// segments and one trailer-sealed JSON checkpoint after seq 11, written
// by commit c8fe02c and frozen) migrates — its checkpoint alone is
// rewritten — opens, appends, checkpoints, and recovers to the same
// bytes from the new checkpoint and, with it gone, from the migrated one.
func TestV3StoreUpgradesInPlace(t *testing.T) {
	dir := migratedCopy(t, "testdata/v3store", 1)
	for _, seg := range []string{segName(0), segName(1)} {
		if !bytes.Equal(mustRead(t, filepath.Join(dir, seg)), mustRead(t, filepath.Join("testdata/v3store", seg))) {
			t.Fatalf("migration rewrote %s, which was already current", seg)
		}
	}
	ref := market.MustNew(testConfig())
	v2storeScript(t, ref)

	sc := StoreConfig{SegmentRecords: 12, CheckpointEvery: -1, RetainSegments: -1}
	jm, replayed, err := OpenStore(market.Config{}, dir, sc)
	if err != nil {
		t.Fatalf("opening the migrated v3 store: %v", err)
	}
	if jm.LastSeq() != 20 || replayed != 9 {
		t.Fatalf("migrated v3 store opened at seq %d after replaying %d records, want 20 and 9", jm.LastSeq(), replayed)
	}
	if d := jm.Snapshot().Diff(ref.Snapshot()); d != "" {
		t.Fatalf("migrated v3 store recovered differently from its script: %s", d)
	}
	// A follower attaching now is served from the migrated checkpoint.
	if catchup, seq, err := jm.Store().CatchupSnapshot(); err != nil || seq != 11 || len(catchup) == 0 {
		t.Fatalf("CatchupSnapshot over the migrated checkpoint = %.20q at seq %d, %v", catchup, seq, err)
	}
	for i := 0; i < 6; i++ {
		cmd := command.RegisterBuyer{Buyer: command.BuyerID(fmt.Sprintf("late-%d", i))}
		if _, err := jm.Apply(cmd); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if _, err := ref.Apply(cmd); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := jm.Store().Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	want := canonicalOf(t, "reference", ref.Snapshot())

	inv, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Segments) != 3 || inv.LastSeq != 26 || inv.LastCheckpoint != 24 || len(inv.Checkpoints) != 2 {
		t.Fatalf("upgraded store inventory: %+v", inv)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("upgraded store does not verify: %v", err)
	}
	for _, dropNew := range []bool{false, true} {
		clone := copyStoreDir(t, dir)
		if dropNew {
			if err := os.Remove(filepath.Join(clone, ckptName(24))); err != nil {
				t.Fatal(err)
			}
		}
		m, seq, replayed, err := RecoverDir(clone)
		if err != nil {
			t.Fatalf("recover (new checkpoint dropped: %v): %v", dropNew, err)
		}
		if wantTail := map[bool]int{false: 2, true: 15}[dropNew]; seq != 26 || replayed != wantTail || !bytes.Equal(canonicalOf(t, "recovered", m.Snapshot()), want) {
			t.Fatalf("recover (new checkpoint dropped: %v): seq %d after %d records, state differs from the reference", dropNew, seq, replayed)
		}
	}
}

// TestFutureVersionsRejectedByName: a seghead or checkpoint claiming a
// format version this build does not read — an older one included —
// fails with ErrVersion and names the file, rather than being read under
// guessed semantics.
func TestFutureVersionsRejectedByName(t *testing.T) {
	rewrite := func(dir, name, old, new string) {
		t.Helper()
		path := filepath.Join(dir, name)
		data := mustRead(t, path)
		if !bytes.Contains(data, []byte(old)) {
			t.Fatalf("%s does not contain %s", name, old)
		}
		if err := os.WriteFile(path, bytes.Replace(data, []byte(old), []byte(new), 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(dir, file, what string) {
		t.Helper()
		if _, _, _, err := RecoverDir(dir); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), file) {
			t.Fatalf("%s: got %v, want ErrVersion naming %s", what, err, file)
		}
	}
	for _, tc := range []struct{ file, new string }{
		{segName(1), `"v":4`},
		{segName(0), `"v":1`},
		{segName(1), `"v":2`},
		{segName(0), `"v":0`},
	} {
		dir := migratedCopy(t, "testdata/v2store", 3)
		rewrite(dir, tc.file, `"v":3`, tc.new)
		refused(dir, tc.file, "seghead with "+tc.new)
	}
	// A JSON checkpoint — version 2 or 3 — is refused as such, before its
	// checksum is looked at.
	for _, src := range []string{"testdata/v2store", "testdata/v3store"} {
		dir := migratedCopy(t, src, map[string]int{"testdata/v2store": 3, "testdata/v3store": 1}[src])
		if err := os.WriteFile(filepath.Join(dir, ckptName(11)), mustRead(t, filepath.Join(src, ckptName(11))), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(dir, ckptName(11), "JSON checkpoint of "+src)
	}
	// A binary checkpoint names its own version: one past ckptVersion,
	// under a checksum that holds, is refused the same way.
	dir := migratedCopy(t, "testdata/v2store", 3)
	future := binary.LittleEndian.AppendUint64([]byte{ckptTag, ckptVersion + 1}, 11)
	future = binary.LittleEndian.AppendUint32(future, crc32.Checksum(future, castagnoli()))
	if err := os.WriteFile(filepath.Join(dir, ckptName(11)), future, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(dir, ckptName(11), fmt.Sprintf("binary checkpoint of version %d", ckptVersion+1))
}

// TestCheckpointTrailer: a checkpoint written by this build is the
// header, Canonical's bytes and a CRC32C over both, and any single
// flipped bit — tag, seq, body, checksum — fails recovery with
// ErrChecksum naming the checkpoint, never with a market.
func TestCheckpointTrailer(t *testing.T) {
	dir := t.TempDir()
	jm, _, err := OpenStore(testConfig(), dir, StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, 4, 60)
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := jm.LastSeq()
	canonical := canonicalOf(t, "live", jm.Snapshot())
	catchup, catchupSeq, err := jm.Store().CatchupSnapshot()
	if err != nil || catchupSeq != seq || !bytes.Equal(catchup, canonical) {
		t.Fatalf("CatchupSnapshot = %d bytes at seq %d, %v; want the live market's %d canonical bytes at %d", len(catchup), catchupSeq, err, len(canonical), seq)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	name := ckptName(seq)
	data := mustRead(t, filepath.Join(dir, name))
	if data[0] != ckptTag || !bytes.Equal(data[ckptHeader:len(data)-4], canonical) {
		t.Fatal("checkpoint body is not the snapshot's canonical bytes")
	}
	for _, off := range []int{0, 1, 2, 9, ckptHeader, len(data) / 2, len(data) - 5, len(data) - 4, len(data) - 1} {
		for _, bit := range []byte{0x01, 0x20} {
			clone := copyStoreDir(t, dir)
			bad := bytes.Clone(data)
			bad[off] ^= bit
			if err := os.WriteFile(filepath.Join(clone, name), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			m, _, _, err := RecoverDir(clone)
			var ce *CorruptError
			if m != nil || !errors.Is(err, ErrChecksum) || !errors.As(err, &ce) || ce.File != name || ce.Seq != seq {
				t.Fatalf("bit %#x flipped at byte %d of %d: market %v, err %v; want ErrChecksum naming %s", bit, off, len(data), m != nil, err, name)
			}
		}
	}
}
