// Store inventory: the segment/checkpoint accounting behind
// `marketctl journal-info` and the store section of /readyz.
package journal

import (
	"os"
	"path/filepath"

	"github.com/datamarket/shield/internal/market"
)

// SegmentInfo describes one segment file.
type SegmentInfo struct {
	Name    string `json:"name"`
	Base    int64  `json:"base_seq"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	Sealed  bool   `json:"sealed"`
	// Covered reports whether every record in the segment is inside
	// the newest checkpoint — i.e. compaction may delete it.
	Covered bool `json:"covered"`
}

// CheckpointInfo describes one checkpoint file.
type CheckpointInfo struct {
	Name  string `json:"name"`
	Seq   int64  `json:"seq"`
	Bytes int64  `json:"bytes"`
}

func checkpointInfo(dir string, seq int64) CheckpointInfo {
	ci := CheckpointInfo{Name: ckptName(seq), Seq: seq}
	if fi, err := os.Stat(filepath.Join(dir, ci.Name)); err == nil {
		ci.Bytes = fi.Size()
	}
	return ci
}

// Inventory is a store directory's full accounting.
type Inventory struct {
	Dir            string           `json:"dir"`
	Segments       []SegmentInfo    `json:"segments"`
	Checkpoints    []CheckpointInfo `json:"checkpoints"`
	FirstSeq       int64            `json:"first_seq"`
	LastSeq        int64            `json:"last_seq"`
	LastCheckpoint int64            `json:"last_checkpoint_seq"`
	TotalBytes     int64            `json:"total_bytes"`
}

// Inventory reports the store's live accounting from in-memory
// metadata (checkpoint sizes are stat'd) — cheap enough for a
// readiness probe.
func (s *Store) Inventory() Inventory {
	s.mu.Lock()
	segs := append([]segMeta(nil), s.segs...)
	ckpts := append([]int64(nil), s.ckpts...)
	lastCkpt := s.lastCkpt
	dir := s.dir
	s.mu.Unlock()
	return inventory(dir, segs, ckpts, lastCkpt)
}

// InspectDir builds a store directory's inventory offline, without
// recovering any market state: the chain reader counts every segment's
// records (a torn trailing record in the final segment is not counted,
// matching what recovery keeps) and refuses, naming the file, a damaged
// record or a chain recovery would refuse. The backing tool is
// `marketctl journal-info`.
func InspectDir(dir string) (*Inventory, error) {
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, err
	}
	c, err := walkChain(dir, l, true, func(int64, Record) error { return nil })
	if err != nil {
		return nil, err
	}
	inv := inventory(dir, c.segs, l.ckptSeqs, l.lastCkpt)
	return &inv, nil
}

// inventory accounts for a chain of segments and the checkpoints beside
// it, the newest at lastCkpt.
func inventory(dir string, segs []segMeta, ckpts []int64, lastCkpt int64) Inventory {
	inv := Inventory{Dir: dir, LastCheckpoint: lastCkpt}
	for i, m := range segs {
		inv.Segments = append(inv.Segments, SegmentInfo{
			Name:    segName(m.index),
			Base:    m.base,
			Records: m.records,
			Bytes:   m.bytes,
			Sealed:  i < len(segs)-1,
			// Covered means compaction may delete it — which requires
			// sealed: the active segment can sit entirely inside the
			// newest checkpoint (a clean Close checkpoints the final
			// seq) but is never removed while the store owns it.
			Covered: i < len(segs)-1 && m.records > 0 && m.maxSeq() <= lastCkpt,
		})
		inv.TotalBytes += m.bytes
	}
	if n := len(segs); n > 0 {
		// An empty final segment's maxSeq is its base-1: the seq before it.
		inv.FirstSeq, inv.LastSeq = segs[0].base, segs[n-1].maxSeq()
	}
	inv.LastSeq = max(inv.LastSeq, lastCkpt)
	for _, seq := range ckpts {
		ci := checkpointInfo(dir, seq)
		inv.Checkpoints = append(inv.Checkpoints, ci)
		inv.TotalBytes += ci.Bytes
	}
	return inv
}

// DiskBytes sums the store directory's on-disk footprint — segments,
// checkpoints, and any in-flight temp files. The torture harness's
// disk ceiling reads this.
func (s *Store) DiskBytes() (int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		if fi, err := ent.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total, nil
}

// VerifyDir checks every byte a store directory holds, including the
// ones recovery never reads, in one walk: every checkpoint is loaded,
// its checksum verified and its snapshot decoded, and the chain is
// recovered read-only with every segment scanned record by record —
// sealed and checkpoint-covered ones too (checksums, framing, sequence
// continuity from its seghead) — and the tail replayed onto the newest
// checkpoint. It returns the first damage found — a *CorruptError
// naming file, seq and offset when a record or checkpoint is bad. The
// backing tool is `marketctl journal-verify`.
func VerifyDir(dir string) error {
	l, err := listStoreDir(dir)
	if err != nil {
		return err
	}
	for _, seq := range l.ckptSeqs[:max(len(l.ckptSeqs)-1, 0)] { // recovery loads the newest
		if _, err := readCheckpointFile(dir, seq); err != nil {
			return err
		}
	}
	_, err = recoverStoreDir(dir, l, true)
	return err
}

// ScanDir streams every record of every segment in dir, oldest segment
// first, as its decoded Event view, naming the segment each came from —
// the read behind `marketctl journal-info -dump`. It stops at the first
// damaged record, or at a chain recovery would refuse, with the error
// that locates it.
func ScanDir(dir string, fn func(segment string, e Event) error) error {
	l, err := listStoreDir(dir)
	if err != nil {
		return err
	}
	_, err = walkChain(dir, l, true, func(seg int64, rec Record) error {
		e, err := rec.Event()
		if err != nil {
			return err
		}
		return fn(segName(seg), e)
	})
	return err
}

// ScanCheckpoints loads, verifies and decodes every checkpoint in dir,
// oldest first — the other half of `marketctl journal-info -dump`, which
// prints each snapshot as JSON.
func ScanCheckpoints(dir string, fn func(CheckpointInfo, market.Snapshot) error) error {
	l, err := listStoreDir(dir)
	if err != nil {
		return err
	}
	for _, seq := range l.ckptSeqs {
		snap, err := readCheckpointFile(dir, seq)
		if err == nil {
			err = fn(checkpointInfo(dir, seq), snap)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
