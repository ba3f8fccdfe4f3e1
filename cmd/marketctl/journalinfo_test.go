package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// buildStore writes a small store — 31 records over four segments, a few
// checkpoints — and returns its directory.
func buildStore(t *testing.T) string {
	t.Helper()
	cfg := market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 8,
	}
	dir := t.TempDir()
	jm, _, err := journal.OpenStore(cfg, dir,
		journal.StoreConfig{SegmentRecords: 8, CheckpointEvery: 12, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJournalInfoCLI: journal-info inspects a store directory offline
// and prints the segment/checkpoint inventory with a recovery summary.
func TestJournalInfoCLI(t *testing.T) {
	dir := buildStore(t)

	out := runCmd(t, &client{}, "journal-info", dir)
	for _, want := range []string{"segments (", "checkpoints (", "00000000.seg", "recovery: restore checkpoint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("journal-info output missing %q:\n%s", want, out)
		}
	}
	inv, err := journal.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, fmt.Sprintf("seqs %d..%d", inv.FirstSeq, inv.LastSeq)) {
		t.Fatalf("journal-info seq range missing:\n%s", out)
	}
	if inv.LastCheckpoint == 0 || !strings.Contains(out, fmt.Sprintf("newest checkpoint %d", inv.LastCheckpoint)) {
		t.Fatalf("journal-info checkpoint %d missing:\n%s", inv.LastCheckpoint, out)
	}

	// Every checkpoint line names its seq and size.
	for _, c := range inv.Checkpoints {
		if want := fmt.Sprintf("%s  seq %d, %d bytes\n", c.Name, c.Seq, c.Bytes); c.Bytes == 0 || !strings.Contains(out, want) {
			t.Fatalf("journal-info output missing %q:\n%s", want, out)
		}
	}

	// A missing directory is a plain error, not a panic.
	if err := run(&client{}, []string{"journal-info", dir + "-nope"}, &strings.Builder{}); err == nil {
		t.Fatal("journal-info on a missing directory succeeded")
	}
}

// TestJournalDumpCLI: journal-info -dump prints every record as one JSON
// event per line, segment by segment — the replacement for `cat` now
// that records are binary frames.
func TestJournalDumpCLI(t *testing.T) {
	dir := buildStore(t)
	out := runCmd(t, &client{}, "journal-info", "-dump", dir)
	var seqs []int64
	segments, checkpoints := 0, 0
	inCheckpoint := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			if inCheckpoint = strings.Contains(line, ".ckpt ("); inCheckpoint {
				checkpoints++
			} else {
				segments++
			}
			continue
		}
		if inCheckpoint {
			// A checkpoint's snapshot, rendered as JSON: the store
			// registers one buyer per record after the genesis.
			var snap market.Snapshot
			if err := json.Unmarshal([]byte(line), &snap); err != nil || len(snap.Buyers) == 0 || len(snap.Engines) != 0 {
				t.Fatalf("dumped checkpoint %.80q is not the snapshot as JSON: %v", line, err)
			}
			continue
		}
		var e journal.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("dump line %q is not a JSON event: %v", line, err)
		}
		seqs = append(seqs, e.Seq)
		if e.Seq == 1 && (e.Op != journal.OpGenesis || e.Config == nil || e.V != journal.FormatVersion) {
			t.Fatalf("first dumped record is not the genesis head: %s", line)
		}
		if e.Seq == 5 && (e.Op != journal.OpRegisterBuyer || e.Buyer != "b3") {
			t.Fatalf("record 5 dumped as %s", line)
		}
	}
	if segments != 4 || len(seqs) != 31 || seqs[0] != 1 || seqs[30] != 31 {
		t.Fatalf("dump shows %d segments and seqs %v, want 4 segments and 1..31", segments, seqs)
	}
	if inv, err := journal.InspectDir(dir); err != nil || checkpoints == 0 || checkpoints != len(inv.Checkpoints) {
		t.Fatalf("dump shows %d checkpoints, the store holds %+v (%v)", checkpoints, inv, err)
	}
}

// TestJournalVerifyCLI: journal-verify passes a healthy store and, for
// one flipped bit in a sealed, checkpoint-covered segment that recovery
// never reads, fails naming the file, the seq and the byte offset.
func TestJournalVerifyCLI(t *testing.T) {
	dir := buildStore(t)
	if out := runCmd(t, &client{}, "journal-verify", dir); !strings.Contains(out, ": ok") {
		t.Fatalf("journal-verify on a healthy store:\n%s", out)
	}

	inv, err := journal.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := inv.Segments[0]
	if !victim.Covered {
		t.Fatalf("segment %s is not checkpoint-covered; the test wants one recovery skips", victim.Name)
	}
	path := filepath.Join(dir, victim.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x08 // inside the segment's last record, seq 8
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := journal.RecoverDir(dir); err != nil {
		t.Fatalf("recovery reads the covered segment after all: %v", err)
	}
	err = run(&client{}, []string{"journal-verify", dir}, &strings.Builder{})
	var ce *journal.CorruptError
	if !errors.Is(err, journal.ErrChecksum) || !errors.As(err, &ce) {
		t.Fatalf("journal-verify on a rotted segment: %v, want ErrChecksum", err)
	}
	if ce.File != victim.Name || ce.Seq != 8 || ce.Offset <= 0 || ce.Offset >= int64(len(data)) {
		t.Fatalf("journal-verify located the damage at %s seq %d byte %d: %v", ce.File, ce.Seq, ce.Offset, err)
	}
	for _, want := range []string{victim.Name, "event 8", fmt.Sprintf("byte %d", ce.Offset)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("journal-verify error %q does not mention %q", err, want)
		}
	}

	// A binary checkpoint is checksummed too: one flipped bit in the
	// oldest one, which recovery never opens, fails the verifier with
	// ErrChecksum naming the file and its seq.
	dir = buildStore(t)
	inv, err = journal.InspectDir(dir)
	if err != nil || len(inv.Checkpoints) < 2 {
		t.Fatalf("store holds %+v (%v), want at least two checkpoints", inv, err)
	}
	ckpt := inv.Checkpoints[0]
	path = filepath.Join(dir, ckpt.Name)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := journal.RecoverDir(dir); err != nil {
		t.Fatalf("recovery reads the older checkpoint after all: %v", err)
	}
	err = run(&client{}, []string{"journal-verify", dir}, &strings.Builder{})
	if !errors.Is(err, journal.ErrChecksum) || !errors.As(err, &ce) || ce.File != ckpt.Name || ce.Seq != ckpt.Seq {
		t.Fatalf("journal-verify on a rotted binary checkpoint: %v, want ErrChecksum naming %s", err, ckpt.Name)
	}
}

// TestJournalMigrateCLI: journal-migrate on testdata/parent.flat — a
// journal file as `marketd -journal FILE` wrote it at the parent of the
// commit that made every persistent market a store (that build's
// flat-file opener under marketd's default flags, three rounds of bids
// and ticks) — makes the store FILE.d, which stands on exactly
// parent.canonical, that build's Restore(parent.flat).Snapshot().
// Canonical(). Both fixtures are frozen: no build writes a journal file
// any more. The file is left as it was, a second run writes nothing, and
// the store verifies.
func TestJournalMigrateCLI(t *testing.T) {
	flatBytes, err := os.ReadFile("testdata/parent.flat")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.canonical")
	if err != nil {
		t.Fatal(err)
	}
	flat := filepath.Join(t.TempDir(), "market.log")
	if err := os.WriteFile(flat, flatBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runCmd(t, &client{}, "journal-migrate", flat); !strings.Contains(out, "journal "+flat+".d: 1 files rewritten; serve it with marketd -journal-dir "+flat+".d") {
		t.Fatalf("journal-migrate output:\n%s", out)
	}
	if out := runCmd(t, &client{}, "journal-migrate", flat); !strings.Contains(out, ": 0 files rewritten") {
		t.Fatalf("second journal-migrate output:\n%s", out)
	}
	// The genesis in the log wins over the configuration given, so an
	// empty one must do.
	jm, _, err := journal.OpenStore(market.Config{}, flat+".d", journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := jm.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the migrated store differs from the parent build's Restore of the file")
	}
	if got, err := os.ReadFile(flat); err != nil || !bytes.Equal(got, flatBytes) {
		t.Fatalf("the journal file was touched (err %v)", err)
	}
	if out := runCmd(t, &client{}, "journal-verify", flat+".d"); !strings.Contains(out, ": ok") {
		t.Fatalf("journal-verify of the migrated store:\n%s", out)
	}
	// A file that is no journal is refused, naming it.
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&client{}, []string{"journal-migrate", junk}, &strings.Builder{}); !errors.Is(err, journal.ErrBadEvent) || !strings.Contains(err.Error(), "junk: event 1 at byte 0") {
		t.Fatalf("journal-migrate on a file that is no journal: %v", err)
	}
}
