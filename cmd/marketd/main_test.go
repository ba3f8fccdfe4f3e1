package main

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// testdata/parent.flat is a journal file as `marketd -journal FILE`
// wrote it at the parent of the commit that made every persistent market
// a store (that build's flat-file opener under marketd's default flags,
// three rounds of bids and ticks), and parent.canonical is that build's
// Restore(parent.flat).Snapshot().Canonical(). Both are frozen: no build
// writes a journal file any more.
func parentFixture(t *testing.T) (flat string, flatBytes, canonical []byte) {
	t.Helper()
	flatBytes, err := os.ReadFile("testdata/parent.flat")
	if err != nil {
		t.Fatal(err)
	}
	canonical, err = os.ReadFile("testdata/parent.canonical")
	if err != nil {
		t.Fatal(err)
	}
	flat = filepath.Join(t.TempDir(), "market.log")
	if err := os.WriteFile(flat, flatBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return flat, flatBytes, canonical
}

// start runs the daemon's journal opening as main does and returns the
// canonical state it serves and what it logged; the store is closed
// again, as a clean shutdown would.
func start(t *testing.T, flat, dir string) (state []byte, logged string) {
	t.Helper()
	var log bytes.Buffer
	// The genesis in the log wins over the flags' configuration, so an
	// empty one must do; it would only be read to start a fresh store.
	jm, err := openJournal(market.Config{}, flat, dir, journal.StoreConfig{}, nil,
		slog.New(slog.NewTextHandler(&log, nil)))
	if err != nil {
		t.Fatalf("openJournal(%q, %q): %v\n%s", flat, dir, err, log.String())
	}
	state, err = jm.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	return state, log.String()
}

// TestJournalFlagAloneMigratesThenServesFromStore is the migration,
// proved: `marketd -journal FILE` on a file the previous release wrote
// moves it into FILE.d on the first start and says so, serves from the
// store without touching FILE on the second, and both times stands on
// exactly the state the previous release restored from FILE.
func TestJournalFlagAloneMigratesThenServesFromStore(t *testing.T) {
	flat, flatBytes, want := parentFixture(t)

	state, logged := start(t, flat, "")
	if !bytes.Equal(state, want) {
		t.Fatal("first start: state differs from the parent build's Restore of the file")
	}
	for _, line := range []string{"level=WARN", "deprecated", "migrated journal file into the store", "dir=" + flat + ".d"} {
		if !strings.Contains(logged, line) {
			t.Errorf("first start did not log %q:\n%s", line, logged)
		}
	}

	state, logged = start(t, flat, "")
	if !bytes.Equal(state, want) {
		t.Fatal("second start: state differs from the parent build's Restore of the file")
	}
	if !strings.Contains(logged, "deprecated") || strings.Contains(logged, "migrated journal file") {
		t.Errorf("second start should warn about the alias and migrate nothing:\n%s", logged)
	}
	if !strings.Contains(logged, "checkpoints=1") {
		t.Errorf("second start did not open the store the first one closed:\n%s", logged)
	}

	if got, err := os.ReadFile(flat); err != nil || !bytes.Equal(got, flatBytes) {
		t.Fatalf("the journal file was touched (err %v)", err)
	}
	// What `marketctl journal-verify FILE.d` runs.
	if err := journal.VerifyDir(flat + ".d"); err != nil {
		t.Fatalf("journal-verify of the migrated store: %v", err)
	}
}

// TestJournalFlagBesideDirIsTheMigrationSource: with -journal-dir the
// file is absorbed into that directory, and nothing is deprecated.
func TestJournalFlagBesideDirIsTheMigrationSource(t *testing.T) {
	flat, _, want := parentFixture(t)
	dir := filepath.Join(t.TempDir(), "market.d")
	state, logged := start(t, flat, dir)
	if !bytes.Equal(state, want) {
		t.Fatal("state differs from the parent build's Restore of the file")
	}
	if strings.Contains(logged, "level=WARN") || !strings.Contains(logged, "migrated journal file into the store") {
		t.Errorf("want a migration and no warning:\n%s", logged)
	}
	if _, err := os.Stat(flat + ".d"); !os.IsNotExist(err) {
		t.Fatalf("a store appeared beside the file although -journal-dir named another: %v", err)
	}
}

// TestJournalDirNamingAFileIsExplained: the store's refusal reaches the
// daemon's caller verbatim.
func TestJournalDirNamingAFileIsExplained(t *testing.T) {
	flat, _, _ := parentFixture(t)
	_, err := openJournal(market.Config{}, "", flat, journal.StoreConfig{}, nil, slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)))
	if err == nil || !strings.Contains(err.Error(), "flat journal") || !strings.Contains(err.Error(), "marketd -journal "+flat) {
		t.Fatalf("-journal-dir on a journal file: %v", err)
	}
}
