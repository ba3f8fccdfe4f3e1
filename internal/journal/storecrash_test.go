package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// copyStoreDir clones a store directory for destructive surgery.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreCrashRecoveryPrefixConsistency is the segmented analogue of
// the flat-log crash property harness: for many seeds it drives the
// random workload through a store with aggressive rotation and
// checkpointing, then simulates a crash by cutting the final (active)
// segment at file start (a rotation that never wrote its seghead),
// inside the seghead record, at every record boundary, and at sampled
// intra-record offsets — plus a stray checkpoint temp file standing in
// for a crash mid-checkpoint-rename. Every recovery must land exactly
// on the state of some durable prefix of the flat reference log, never
// behind the newest checkpoint, and resume appends cleanly.
func TestStoreCrashRecoveryPrefixConsistency(t *testing.T) {
	const seeds = 24
	const ops = 140
	for s := 0; s < seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			sc := StoreConfig{
				SegmentRecords:  12,
				SegmentBytes:    1 << 20,
				CheckpointEvery: 25,
				RetainSegments:  2, // compaction runs mid-workload, like production
			}
			dir := t.TempDir()
			jm, _, err := OpenStore(cfg, dir, sc)
			if err != nil {
				t.Fatal(err)
			}
			driveWorkload(t, jm, seed, ops)
			if err := jm.Close(); err != nil {
				t.Fatal(err)
			}

			// Reference: the same workload against a flat log gives the
			// state after every prefix of k records.
			_, events := flatReference(t, cfg, seed, ops)
			stateAt := func(seq int64) market.Snapshot {
				t.Helper()
				pm, err := Bootstrap(events[:seq])
				if err != nil {
					t.Fatalf("bootstrap prefix %d: %v", seq, err)
				}
				return pm.Snapshot()
			}

			l, err := listStoreDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.segIdx) < 3 || len(l.ckptSeqs) == 0 {
				t.Fatalf("workload too small: %d segments, %d checkpoints", len(l.segIdx), len(l.ckptSeqs))
			}
			ckptSeq := l.ckptSeqs[len(l.ckptSeqs)-1]
			finalSeg := segName(l.segIdx[len(l.segIdx)-1])
			finalBytes, err := os.ReadFile(filepath.Join(dir, finalSeg))
			if err != nil {
				t.Fatal(err)
			}
			headLen := bytes.IndexByte(finalBytes, '\n') + 1
			if headLen == 0 {
				t.Fatalf("final segment %s has no seghead", finalSeg)
			}
			finalHead, _, err := readSegHead(dir, l.segIdx[len(l.segIdx)-1])
			if err != nil {
				t.Fatal(err)
			}

			check := func(cut int, plantTmp bool, label string) {
				t.Helper()
				clone := copyStoreDir(t, dir)
				if err := os.Truncate(filepath.Join(clone, finalSeg), int64(cut)); err != nil {
					t.Fatal(err)
				}
				if plantTmp {
					// A crash between a checkpoint temp file's write and
					// its rename leaves the temp behind; recovery must
					// ignore and remove it.
					if err := os.WriteFile(filepath.Join(clone, "ckpt-crash.tmp"),
						[]byte("half a checkpoint"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				rm, _, err := OpenStore(cfg, clone, sc)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				defer rm.Close()
				gotSeq := rm.LastSeq()
				if gotSeq < ckptSeq {
					t.Fatalf("%s: recovered to seq %d, behind checkpoint %d", label, gotSeq, ckptSeq)
				}
				if gotSeq > int64(len(events)) {
					t.Fatalf("%s: recovered to seq %d beyond the %d the workload wrote", label, gotSeq, len(events))
				}
				if d := rm.Snapshot().Diff(stateAt(gotSeq)); d != "" {
					t.Fatalf("%s: recovered state is not the seq-%d prefix state: %s", label, gotSeq, d)
				}
				if plantTmp {
					if _, err := os.Stat(filepath.Join(clone, "ckpt-crash.tmp")); !os.IsNotExist(err) {
						t.Fatalf("%s: stray checkpoint temp survived recovery", label)
					}
				}
				// The repaired store must accept appends.
				if err := rm.RegisterBuyer("post-crash"); err != nil {
					t.Fatalf("%s: append after recovery: %v", label, err)
				}
			}

			// Segment boundary: the active segment vanishes down to an
			// empty file (created, nothing durable — not even its head).
			check(0, false, "empty active segment")
			// Mid-rotation: the seghead record itself is torn.
			if headLen > 1 {
				check(1+int(seed)%(headLen-1), false, "torn seghead")
			}
			// Every record boundary inside the active segment.
			bounds := recordBoundaries(t, finalBytes[headLen:], finalHead.Base)
			for k, b := range bounds {
				check(headLen+b, k == 0, fmt.Sprintf("boundary after tail record %d", k+1))
			}
			// Sampled intra-record tears.
			r := rng.New(seed ^ 0xbf58476d1ce4e5b9)
			prev := 0
			for _, b := range bounds {
				if b-prev > 1 {
					cut := prev + 1 + r.Intn(b-prev-1)
					check(headLen+cut, false, fmt.Sprintf("record torn at segment byte %d", headLen+cut))
				}
				prev = b
			}
		})
	}
}

// TestStoreDeletedSegmentCanary is the mutation canary: deleting a
// segment recovery still needs must fail the open, and the error must
// name the missing file — both when the deletion punches a hole in the
// chain and when it silently shortens the head of the chain.
func TestStoreDeletedSegmentCanary(t *testing.T) {
	cfg := testConfig()
	sc := StoreConfig{
		SegmentRecords:  10,
		SegmentBytes:    1 << 20,
		CheckpointEvery: -1, // nothing is covered: every segment is load-bearing
		RetainSegments:  -1,
	}
	dir := t.TempDir()
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, 21, 120)
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.segIdx) < 4 {
		t.Fatalf("need >= 4 segments, got %d", len(l.segIdx))
	}

	// Hole in the middle of the chain.
	mid := segName(l.segIdx[len(l.segIdx)/2])
	clone := copyStoreDir(t, dir)
	if err := os.Remove(filepath.Join(clone, mid)); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(cfg, clone, sc)
	if !errors.Is(err, ErrSegmentMissing) {
		t.Fatalf("mid-chain deletion: err=%v, want ErrSegmentMissing", err)
	}
	if !strings.Contains(err.Error(), mid) {
		t.Fatalf("mid-chain deletion error does not name %s: %v", mid, err)
	}

	// Oldest segment deleted: the chain stays contiguous, but replay
	// needs seq 1 and the oldest survivor starts later.
	oldest := segName(l.segIdx[0])
	clone = copyStoreDir(t, dir)
	if err := os.Remove(filepath.Join(clone, oldest)); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(cfg, clone, sc)
	if !errors.Is(err, ErrSegmentMissing) {
		t.Fatalf("oldest-segment deletion: err=%v, want ErrSegmentMissing", err)
	}
	if !strings.Contains(err.Error(), oldest) {
		t.Fatalf("oldest-segment deletion error does not name %s: %v", oldest, err)
	}
	// Read-only recovery trips the same wire.
	if _, _, _, err := RecoverDir(clone); !errors.Is(err, ErrSegmentMissing) {
		t.Fatalf("RecoverDir: err=%v, want ErrSegmentMissing", err)
	}
}

// TestStoreSealedSegmentTornTail: a tear anywhere but the final
// segment cannot be a crash artifact (rotation fsyncs before sealing),
// so recovery must refuse it as corruption rather than silently
// dropping mid-history records.
func TestStoreSealedSegmentTornTail(t *testing.T) {
	cfg := testConfig()
	sc := StoreConfig{SegmentRecords: 10, SegmentBytes: 1 << 20, CheckpointEvery: -1, RetainSegments: -1}
	dir := t.TempDir()
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, jm, 9, 80)
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.segIdx) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(l.segIdx))
	}
	sealed := segName(l.segIdx[1])
	path := filepath.Join(dir, sealed)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenStore(cfg, dir, sc)
	if !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("torn sealed segment: err=%v, want ErrStoreCorrupt", err)
	}
	if !strings.Contains(err.Error(), sealed) {
		t.Fatalf("error does not name %s: %v", sealed, err)
	}
}

// TestStoreRottedSegheadNewline: the final segment's seghead may be cut
// short by a crash mid-rotation, and recovery then rebuilds the segment
// empty — but only a prefix of the line can be a crash's doing. A
// seghead whose newline rotted (one flipped bit) in front of live
// records, none of which happens to contain a 0x0A byte, also reads as
// "no newline before EOF"; believing that tear dropped the records and
// returned an older market (`shieldstorm -bitrot -seed 83` found it).
// It must be refused as corruption, by name.
func TestStoreRottedSegheadNewline(t *testing.T) {
	cfg := testConfig()
	sc := StoreConfig{SegmentRecords: 10, SegmentBytes: 1 << 20, CheckpointEvery: -1, RetainSegments: -1}
	dir := t.TempDir()
	jm, _, err := OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	// 22 records with genesis: two sealed segments and a final one
	// holding two ticks, whose frames contain no newline byte.
	for i := 0; i < 21; i++ {
		if _, err := jm.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	final := segName(l.segIdx[len(l.segIdx)-1])
	path := filepath.Join(dir, final)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if len(l.segIdx) != 3 || nl < 0 || nl == len(data)-1 || bytes.IndexByte(data[nl+1:], '\n') >= 0 {
		t.Fatalf("want a third segment whose records hold no newline, got %d segments, %q", len(l.segIdx), data)
	}
	data[nl] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() error{
		"RecoverDir": func() error { _, _, _, err := RecoverDir(dir); return err },
		"VerifyDir":  func() error { return VerifyDir(dir) },
		"OpenStore":  func() error { _, _, err := OpenStore(cfg, dir, sc); return err },
	} {
		if err := open(); !errors.Is(err, ErrStoreCorrupt) || !strings.Contains(err.Error(), final) {
			t.Errorf("%s over a rotted seghead newline: %v, want ErrStoreCorrupt naming %s", name, err, final)
		}
	}
	// A seghead really cut short — even just before its newline — is
	// still a crash artifact, and recovery still repairs it.
	if err := os.WriteFile(path, data[:nl], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, seq, _, err := RecoverDir(dir); err != nil || seq != 20 {
		t.Fatalf("recovery over a seghead cut before its newline: seq %d, %v; want 20", seq, err)
	}
}
