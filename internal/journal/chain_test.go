package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChainDefectsRefusedByEveryReader: each way a store's segment
// chain can break is refused by every reader of a store directory —
// recovery, both store constructors, the verifier, the inventory and the
// dump — with the same sentinel, naming the same segment. The store has
// no checkpoint, so recovery reads every segment too.
func TestChainDefectsRefusedByEveryReader(t *testing.T) {
	sc := StoreConfig{SegmentRecords: 5, SegmentBytes: 1 << 20, CheckpointEvery: -1, RetainSegments: -1}
	healthy := t.TempDir()
	jm, _, err := OpenStore(testConfig(), healthy, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // with genesis, records 1..21 over segments 0..4
		if _, err := jm.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(healthy)
	if err != nil || len(l.segIdx) != 5 || len(l.ckptSeqs) != 0 {
		t.Fatalf("want five segments and no checkpoint, got %+v (%v)", l, err)
	}

	victim := segName(2) // a sealed segment in the middle of the chain
	defects := []struct {
		name     string
		sentinel error
		damage   func(path string, data []byte) error
	}{
		{"missing middle segment", ErrSegmentMissing, func(path string, _ []byte) error {
			return os.Remove(path)
		}},
		{"torn sealed segment", ErrStoreCorrupt, func(path string, data []byte) error {
			return os.WriteFile(path, data[:len(data)-1], 0o644)
		}},
		{"torn sealed seghead", ErrStoreCorrupt, func(path string, data []byte) error {
			return os.WriteFile(path, data[:10], 0o644)
		}},
		{"base does not advance", ErrStoreCorrupt, func(path string, data []byte) error {
			rewritten := bytes.Replace(data, []byte(`"base":11,`), []byte(`"base":6,`), 1)
			if bytes.Equal(rewritten, data) {
				return errors.New("seghead holds no base 11")
			}
			return os.WriteFile(path, rewritten, 0o644)
		}},
	}
	for _, d := range defects {
		t.Run(d.name, func(t *testing.T) {
			for name, read := range chainReaders(sc) {
				t.Run(name, func(t *testing.T) {
					dir := copyStoreDir(t, healthy)
					path := filepath.Join(dir, victim)
					if err := d.damage(path, mustRead(t, path)); err != nil {
						t.Fatal(err)
					}
					if err := read(dir); !errors.Is(err, d.sentinel) || !strings.Contains(fmt.Sprint(err), victim) {
						t.Errorf("%s over a store with a %s: %v; want %v naming %s", name, d.name, err, d.sentinel, victim)
					}
				})
			}
		})
	}
}

// TestChainAfterCheckpointOutranRecords: a no-fsync crash can lose
// records a checkpoint already holds, and recovery then starts the next
// segment at checkpoint+1, leaving a sealed segment short of the next
// base over covered seqs. Every reader accepts that chain.
func TestChainAfterCheckpointOutranRecords(t *testing.T) {
	sc := StoreConfig{SegmentRecords: 5, SegmentBytes: 1 << 20, CheckpointEvery: -1, RetainSegments: -1}
	dir := t.TempDir()
	seg1 := filepath.Join(dir, segName(1))
	jm, _, err := OpenStore(testConfig(), dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	// held is segment 1's size while it holds seq 6 alone; with genesis,
	// seqs 1..5 land in segment 0 and 6..8 in segment 1.
	var held int64
	for i := 0; i < 7; i++ {
		if _, err := jm.Tick(); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(seg1); err == nil && i == 4 {
			held = fi.Size()
		}
	}
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, held); err != nil {
		t.Fatal(err)
	}
	if jm, _, err = OpenStore(testConfig(), dir, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := jm.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err := listStoreDir(dir); err != nil || len(l.segIdx) != 3 {
		t.Fatalf("want segment 2 opened at checkpoint+1, got %+v (%v)", l, err)
	}
	for name, read := range chainReaders(sc) {
		if err := read(copyStoreDir(t, dir)); err != nil {
			t.Errorf("%s over a segment short of the next base over covered seqs: %v", name, err)
		}
	}
}

// TestCheckpointWithoutSegmentsResumes: a store whose segments are all
// gone — a follower's reset cut between its checkpoint and its first
// segment leaves one — reopens from the checkpoint and continues after
// it, rather than starting a fresh market that the next recovery would
// splice onto the old checkpoint.
func TestCheckpointWithoutSegmentsResumes(t *testing.T) {
	sc := StoreConfig{SegmentRecords: 5, SegmentBytes: 1 << 20, CheckpointEvery: -1, RetainSegments: -1}
	dir := t.TempDir()
	jm, _, err := OpenStore(testConfig(), dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	if err := jm.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, seq := canonicalOf(t, "live", jm.Snapshot()), jm.LastSeq()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	}
	if jm, _, err = OpenStore(testConfig(), dir, sc); err != nil {
		t.Fatal(err)
	}
	if got := canonicalOf(t, "reopened", jm.Snapshot()); jm.LastSeq() != seq || !bytes.Equal(got, want) {
		t.Fatalf("reopened at seq %d, want the checkpoint's %d and its market", jm.LastSeq(), seq)
	}
	if _, err := jm.Tick(); err != nil {
		t.Fatal(err)
	}
	want = canonicalOf(t, "live", jm.Snapshot())
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if m, got, _, err := RecoverDir(dir); err != nil || got != seq+1 || !bytes.Equal(canonicalOf(t, "recovered", m.Snapshot()), want) {
		t.Fatalf("RecoverDir = seq %d, %v; want seq %d and the served market", got, err, seq+1)
	}
}

// chainReaders is every reader of a store directory, each reduced to
// its error.
func chainReaders(sc StoreConfig) map[string]func(dir string) error {
	return map[string]func(dir string) error{
		"RecoverDir": func(dir string) error { _, _, _, err := RecoverDir(dir); return err },
		"OpenStore": func(dir string) error {
			jm, _, err := OpenStore(testConfig(), dir, sc)
			if err == nil {
				jm.Close()
			}
			return err
		},
		"OpenFollower": func(dir string) error {
			m, err := OpenFollower(dir, sc)
			if m != nil {
				m.Close()
			}
			return err
		},
		"VerifyDir":  VerifyDir,
		"InspectDir": func(dir string) error { _, err := InspectDir(dir); return err },
		"ScanDir":    func(dir string) error { return ScanDir(dir, func(string, Event) error { return nil }) },
	}
}
