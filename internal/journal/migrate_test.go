package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/market"
)

// frozenInput is one of the frozen fixtures an older build wrote, with
// the canonical state the build that wrote it rebuilds from it.
type frozenInput struct {
	path  string
	store bool
	want  func(t *testing.T) []byte
}

func frozenInputs() []frozenInput {
	fromJSON := func(path string) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			var snap market.Snapshot
			if err := json.Unmarshal(mustRead(t, path), &snap); err != nil {
				t.Fatal(err)
			}
			return canonicalOf(t, path, snap)
		}
	}
	script := func(t *testing.T) []byte {
		ref := market.MustNew(testConfig())
		v2storeScript(t, ref)
		return canonicalOf(t, "v2storeScript", ref.Snapshot())
	}
	return []frozenInput{
		{legacyLogPath, false, fromJSON(legacySnapPath)},
		{v2LogPath, false, fromJSON(v2SnapPath)},
		{goldenLogPath, false, fromJSON(goldenSnapPath)},
		{"testdata/compacted.flat", false, func(t *testing.T) []byte { return mustRead(t, "testdata/compacted.canonical") }},
		{"testdata/v2store", true, script},
		{"testdata/v3store", true, script},
	}
}

// plantInput copies a frozen input into a scratch directory, so nothing
// under testdata is ever migrated in place.
func plantInput(t *testing.T, in frozenInput) string {
	t.Helper()
	if in.store {
		return copyStoreDir(t, in.path)
	}
	return plantFile(t, filepath.Base(in.path), mustRead(t, in.path))
}

// storeFiles reads every file of a store directory but the temporary
// ones, by name.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, idx := range l.segIdx {
		files[segName(idx)] = string(mustRead(t, filepath.Join(dir, segName(idx))))
	}
	for _, seq := range l.ckptSeqs {
		files[ckptName(seq)] = string(mustRead(t, filepath.Join(dir, ckptName(seq))))
	}
	return files
}

// TestMigrateFrozenInputs: every frozen input an older build left
// migrates and recovers to exactly the canonical bytes the build that
// wrote it rebuilt; a second run writes nothing, and the store verifies.
func TestMigrateFrozenInputs(t *testing.T) {
	for _, in := range frozenInputs() {
		t.Run(filepath.Base(in.path), func(t *testing.T) {
			path := plantInput(t, in)
			dir, files, err := Migrate(path)
			if err != nil || files == 0 {
				t.Fatalf("migrating: %d files, %v", files, err)
			}
			if want := map[bool]string{true: path, false: path + ".d"}[in.store]; dir != want {
				t.Fatalf("migrated into %s, want %s", dir, want)
			}
			m, _, _, err := RecoverDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonicalOf(t, "migrated", m.Snapshot()), in.want(t)) {
				t.Fatal("the migrated store rebuilds a different market than the build that wrote the input")
			}
			if err := VerifyDir(dir); err != nil {
				t.Fatalf("the migrated store does not verify: %v", err)
			}
			before := storeFiles(t, dir)
			if _, files, err := Migrate(path); err != nil || files != 0 {
				t.Fatalf("second run: %d files, %v", files, err)
			}
			if after := storeFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatal("a second run changed the store")
			}
			if !in.store && !bytes.Equal(mustRead(t, path), mustRead(t, in.path)) {
				t.Fatal("migration touched the journal file")
			}
		})
	}
}

// TestMigrateRefusalByName: unmigrated, every input an older build left
// is refused by every reader — ErrVersion for the bytes, ErrNotStoreDir
// for a journal file handed to a store reader — with the command that
// rewrites it and its path in the text, and not one byte of it changes.
func TestMigrateRefusalByName(t *testing.T) {
	readers := map[string]func(path string) error{
		"OpenStore": func(path string) error {
			jm, _, err := OpenStore(testConfig(), path, smallStoreConfig())
			if err == nil {
				jm.Close()
			}
			return err
		},
		"RecoverDir": func(path string) error {
			_, _, _, err := RecoverDir(path)
			return err
		},
		"OpenFollower": func(path string) error {
			m, err := OpenFollower(path, smallStoreConfig())
			if m != nil {
				m.Close()
			}
			return err
		},
		"InspectDir": func(path string) error {
			_, err := InspectDir(path)
			return err
		},
		"VerifyDir": VerifyDir,
		"Restore": func(path string) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = Restore(f)
			return err
		},
	}
	for _, in := range frozenInputs() {
		for name, read := range readers {
			switch {
			case name == "Restore" && (in.store || in.path == goldenLogPath || strings.HasSuffix(in.path, ".flat")):
				continue // a store is no log; the other two are frames, which Restore reads
			case name == "InspectDir" && in.path == "testdata/v3store":
				continue // the inventory reads no checkpoint's contents
			}
			path := plantInput(t, in)
			before := map[string]string{"": string(readOrNil(path))}
			if in.store {
				before = storeFiles(t, path)
			}
			err := read(path)
			sentinel, named := ErrVersion, "`marketctl journal-migrate "+path+"`"
			switch {
			case !in.store && name != "Restore":
				sentinel = ErrNotStoreDir
			case name == "Restore":
				named = "`marketctl journal-migrate "
			}
			if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), named) {
				t.Errorf("%s on %s: %v; want %v naming %s", name, in.path, err, sentinel, named)
			}
			after := map[string]string{"": string(readOrNil(path))}
			if in.store {
				after = storeFiles(t, path)
			}
			if fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("%s on %s changed its input", name, in.path)
			}
			if _, err := os.Stat(path + ".d"); !os.IsNotExist(err) {
				t.Errorf("%s on %s made a store beside it", name, in.path)
			}
		}
	}
}

// readOrNil reads a regular file; a directory reads as nil.
func readOrNil(path string) []byte {
	data, _ := os.ReadFile(path)
	return data
}

// TestMigrateOlderCheckpointStillJSON: a current store whose older
// checkpoint is still JSON fails the verifier, which reads every
// checkpoint, but is served from its newest one, the only one recovery
// reads.
func TestMigrateOlderCheckpointStillJSON(t *testing.T) {
	dir := migratedCopy(t, "testdata/v3store", 1)
	jm, _, err := OpenStore(market.Config{}, dir, StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBuyer("late"); err != nil {
		t.Fatal(err)
	}
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := canonicalOf(t, "live", jm.Snapshot())
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, ckptName(11))
	if err := os.WriteFile(old, mustRead(t, filepath.Join("testdata/v3store", ckptName(11))), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDir(dir); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), ckptName(11)) || !strings.Contains(err.Error(), "journal-migrate "+dir) {
		t.Fatalf("VerifyDir with an older JSON checkpoint: %v", err)
	}
	jm, replayed, err := OpenStore(market.Config{}, dir, StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
	if err != nil {
		t.Fatalf("OpenStore with an older JSON checkpoint: %v", err)
	}
	defer jm.Close()
	if got := canonicalOf(t, "served", jm.Snapshot()); replayed != 0 || !bytes.Equal(got, want) {
		t.Fatalf("served after replaying %d records, state differs: want the newest checkpoint's", replayed)
	}
}

// TestMigrateIsCrashSafe: each file lands whole, so a migration cut short
// leaves some files rewritten and the rest as they were — every such mix
// of v2store's three files, with a stray temporary file beside them, is
// finished by a rerun to the same bytes a migration in one go writes.
func TestMigrateIsCrashSafe(t *testing.T) {
	done := storeFiles(t, migratedCopy(t, "testdata/v2store", 3))
	names := []string{ckptName(11), segName(0), segName(1)}
	for mask := 0; mask < 1<<len(names); mask++ {
		dir := copyStoreDir(t, "testdata/v2store")
		rewritten := 0
		for i, name := range names {
			if mask&(1<<i) != 0 {
				rewritten++
				if err := os.WriteFile(filepath.Join(dir, name), []byte(done[name]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)+"-1.tmp"), []byte("cut short"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, files, err := Migrate(dir); err != nil || files != len(names)-rewritten {
			t.Fatalf("mix %03b: rerun wrote %d files, %v; want %d", mask, files, err, len(names)-rewritten)
		}
		if got := storeFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(done) {
			t.Fatalf("mix %03b: the rerun's store differs from a migration in one go", mask)
		}
	}
}

// TestMigrateChecksumsV3Trailer: a version-3 checkpoint is a JSON line
// and a CRC32C trailer line, and the migration believes neither before
// they agree: any single flipped bit in the body or the trailer fails it
// with ErrChecksum naming the checkpoint and its seq, and the directory
// is left as it was. A version-2 checkpoint and JSON lines have no
// checksum; this is the one place their bytes are still read.
func TestMigrateChecksumsV3Trailer(t *testing.T) {
	const src = "testdata/v3store"
	name := ckptName(11)
	data := mustRead(t, filepath.Join(src, name))
	trailer := len(data) - ckptTrailerLen
	if data[0] != '{' || !bytes.HasPrefix(data[trailer:], []byte(ckptTrailer)) || bytes.Count(data, []byte("\n")) != 2 {
		t.Fatalf("the version-3 fixture is not a body line plus a trailer line: ...%q", data[max(0, trailer-8):])
	}
	for _, off := range []int{0, 7, trailer / 2, trailer - 1, trailer, trailer + 3, trailer + len(ckptTrailer), len(data) - 2, len(data) - 1} {
		for _, bit := range []byte{0x01, 0x20} {
			dir := copyStoreDir(t, src)
			bad := bytes.Clone(data)
			bad[off] ^= bit
			if err := os.WriteFile(filepath.Join(dir, name), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			before := storeFiles(t, dir)
			_, files, err := Migrate(dir)
			var ce *CorruptError
			if files != 0 || !errors.Is(err, ErrChecksum) || !errors.As(err, &ce) || ce.File != name || ce.Seq != 11 {
				t.Fatalf("bit %#x flipped at byte %d of %d: %d files, err %v; want ErrChecksum naming %s", bit, off, len(data), files, err, name)
			}
			if l, _ := listStoreDir(dir); fmt.Sprint(storeFiles(t, dir)) != fmt.Sprint(before) || len(l.tmps) != 0 {
				t.Fatalf("bit %#x flipped at byte %d: the refused migration changed the directory", bit, off)
			}
		}
	}
}
