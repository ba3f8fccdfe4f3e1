// The direct twin's store drills: crash-cut recovery and the disk
// ceiling, which make rotation, checkpointing and compaction part of
// every differential run instead of a storage-layer detail.
package torture

import (
	"os"
	"path/filepath"

	"github.com/datamarket/shield/internal/journal"
)

// storeCrashCut is one mid-run recovery drill. The direct twin's
// directory is copied twice: the uncut copy must recover to exactly the
// live state, and a copy whose active segment is torn at a seeded
// offset must recover to a durable prefix no older than the newest
// checkpoint.
// Between ops the store is quiescent except for a possibly in-flight
// checkpoint temp file, which recovery must ignore.
func (h *harness) storeCrashCut(opIdx int) *Failure {
	op := Op{Kind: OpTick}
	r := h.replicas[0]
	dir, liveSeq := r.jm.Store().Dir(), r.jm.LastSeq()

	scratch, err := os.MkdirTemp(h.cfg.StoreDir, "cut-*")
	if err != nil {
		return h.fail(opIdx, op, "store crash-cut scratch: %v", err)
	}
	defer os.RemoveAll(scratch)

	// Uncut copy: recovery must rebuild the live state bit for bit.
	whole := filepath.Join(scratch, "whole")
	if err := copyDir(dir, whole); err != nil {
		return h.fail(opIdx, op, "store crash-cut copy: %v", err)
	}
	if err := journal.CheckRecovery(whole, r.jm); err != nil {
		return h.fail(opIdx, op, "store uncut copy: %v", err)
	}
	liveSnap := r.jm.Snapshot()

	// Torn copy: cut the active segment at a seeded offset. Anything
	// from an empty file to a half-written record must recover to a
	// durable prefix at or past the newest checkpoint.
	torn := filepath.Join(scratch, "torn")
	if err := copyDir(dir, torn); err != nil {
		return h.fail(opIdx, op, "store crash-cut copy: %v", err)
	}
	inv, err := journal.InspectDir(torn)
	if err != nil {
		return h.fail(opIdx, op, "store crash-cut inventory: %v", err)
	}
	if len(inv.Segments) == 0 {
		return h.fail(opIdx, op, "store crash-cut copy holds no segments")
	}
	last := inv.Segments[len(inv.Segments)-1]
	final := filepath.Join(torn, last.Name)
	cut := int64(0)
	if last.Bytes > 0 {
		cut = int64(h.cutRNG.Intn(int(last.Bytes)))
	}
	if err := os.Truncate(final, cut); err != nil {
		return h.fail(opIdx, op, "store crash-cut truncate: %v", err)
	}
	tm, tseq, _, err := journal.RecoverDir(torn)
	if err != nil {
		return h.fail(opIdx, op, "store torn recovery (cut %s at %d): %v", last.Name, cut, err)
	}
	lastCkpt := inv.LastCheckpoint
	if tseq < lastCkpt || tseq > liveSeq {
		return h.fail(opIdx, op, "store torn recovery reached seq %d, want within [%d, %d]", tseq, lastCkpt, liveSeq)
	}
	if tseq == liveSeq {
		if d := tm.Snapshot().Diff(liveSnap); d != "" {
			return h.fail(opIdx, op, "store torn recovery at live seq diverges in sections %v", d)
		}
	}
	return nil
}

// checkStoreDisk enforces the disk ceiling at checkpoints and tracks
// the peak footprint for the report.
func (h *harness) checkStoreDisk(opIdx int) *Failure {
	n, err := h.replicas[0].jm.Store().DiskBytes()
	if err != nil {
		return h.fail(opIdx, Op{Kind: OpTick}, "store disk accounting: %v", err)
	}
	if n > h.report.StoreDiskPeak {
		h.report.StoreDiskPeak = n
	}
	if c := h.cfg.StoreDiskCeilingBytes; c > 0 && n > c {
		return h.fail(opIdx, Op{Kind: OpTick},
			"direct twin uses %d bytes on disk, over the %d-byte ceiling (compaction is not keeping up)", n, c)
	}
	return nil
}

// copyDir clones a store directory (flat, no subdirectories). A
// background checkpoint may compact a segment away between the listing
// and the read; the clone is retried rather than failed, because a
// vanishing covered segment is legal behaviour, not damage.
func copyDir(src, dst string) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = copyDirOnce(src, dst); err == nil || !os.IsNotExist(err) {
			return err
		}
		_ = os.RemoveAll(dst)
	}
	return err
}

func copyDirOnce(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
