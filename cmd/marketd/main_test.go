package main

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

const fixtures = "../../internal/journal/testdata"

// copyFixture copies a file or the files of a directory under fixtures
// into a scratch directory and returns the copy's path.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join(fixtures, name), filepath.Join(t.TempDir(), name)
	files := []string{""}
	if ents, err := os.ReadDir(src); err == nil {
		if err := os.Mkdir(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		files = files[:0]
		for _, ent := range ents {
			files = append(files, ent.Name())
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestJournalDirNamingAFileIsExplained: -journal-dir on a journal file an
// older release kept refuses to start with the one command to run first,
// and leaves the file as it was.
func TestJournalDirNamingAFileIsExplained(t *testing.T) {
	refusedUntouched(t, "pr1.log", journal.ErrNotStoreDir)
}

// TestJournalDirRefusesAnOlderStore: so does -journal-dir on a store a
// version-2 build wrote.
func TestJournalDirRefusesAnOlderStore(t *testing.T) {
	refusedUntouched(t, "v2store", journal.ErrVersion)
}

func refusedUntouched(t *testing.T, name string, sentinel error) {
	t.Helper()
	path := copyFixture(t, name)
	_, err := openJournal(market.Config{}, path, journal.StoreConfig{}, nil, slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)))
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "`marketctl journal-migrate "+path+"`") {
		t.Fatalf("-journal-dir %s: %v; want %v naming marketctl journal-migrate %s", name, err, sentinel, path)
	}
	if err := filepath.Walk(path, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		got, err := os.ReadFile(p)
		if err == nil && !bytes.Equal(got, mustRead(t, filepath.Join(fixtures, name, strings.TrimPrefix(p, path)))) {
			err = errors.New("changed")
		}
		return err
	}); err != nil {
		t.Fatalf("-journal-dir %s: the refusal touched the input: %v", name, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
