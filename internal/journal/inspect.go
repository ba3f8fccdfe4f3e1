// Store inventory: the segment/checkpoint accounting behind
// `marketctl journal-info` and the store section of /readyz.
package journal

import (
	"fmt"
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
	if len(segs) > 0 {
		inv.FirstSeq = segs[0].base
		if last := segs[len(segs)-1]; last.records > 0 {
			inv.LastSeq = last.maxSeq()
		} else if len(segs) > 1 {
			inv.LastSeq = segs[len(segs)-2].maxSeq()
		}
	}
	if inv.LastSeq < lastCkpt {
		inv.LastSeq = lastCkpt
	}
	for _, seq := range ckpts {
		ci := checkpointInfo(dir, seq)
		inv.Checkpoints = append(inv.Checkpoints, ci)
		inv.TotalBytes += ci.Bytes
	}
	return inv
}

// InspectDir builds a store directory's inventory offline, without
// recovering any market state: seghead chaining gives each segment's
// base, and record counts come from the record scanner (a torn trailing
// record in the final segment is not counted, matching what recovery
// would keep; a damaged record fails the inspection by name). The
// backing tool is `marketctl journal-info`.
func InspectDir(dir string) (*Inventory, error) {
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, err
	}
	inv := &Inventory{Dir: dir}
	if n := len(l.ckptSeqs); n > 0 {
		inv.LastCheckpoint = l.ckptSeqs[n-1]
	}
	for i, idx := range l.segIdx {
		name := segName(idx)
		si := SegmentInfo{Name: name, Sealed: i < len(l.segIdx)-1}
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			si.Bytes = fi.Size()
		}
		head, torn, err := readSegHead(dir, idx)
		if err != nil {
			return nil, err
		}
		if !torn {
			si.Base = head.Base
			var n int64
			if _, _, err := scanSegment(dir, idx, head.Base, func(Record) error { n++; return nil }); err != nil {
				return nil, err
			}
			si.Records = n
			if n > 0 {
				si.Covered = si.Sealed && si.Base+n-1 <= inv.LastCheckpoint
				inv.LastSeq = si.Base + n - 1
			}
		}
		if i == 0 {
			inv.FirstSeq = si.Base
		}
		inv.TotalBytes += si.Bytes
		inv.Segments = append(inv.Segments, si)
	}
	if inv.LastSeq < inv.LastCheckpoint {
		inv.LastSeq = inv.LastCheckpoint
	}
	for _, seq := range l.ckptSeqs {
		ci := checkpointInfo(dir, seq)
		inv.TotalBytes += ci.Bytes
		inv.Checkpoints = append(inv.Checkpoints, ci)
	}
	return inv, nil
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
// ones recovery never reads: each segment — sealed and checkpoint-
// covered ones too — is scanned record by record (checksums, framing,
// sequence continuity from its seghead; a torn tail only in the final
// segment), every checkpoint is loaded, its checksum verified and its
// snapshot decoded, and
// finally the chain is recovered read-only, which catches what no
// single file shows (a missing segment, bases that do not chain). It
// returns the first damage found — a *CorruptError naming file, seq and
// offset when a record or checkpoint is bad. The backing tool is
// `marketctl journal-verify`.
func VerifyDir(dir string) error {
	l, err := listStoreDir(dir)
	if err != nil {
		return err
	}
	for i, idx := range l.segIdx {
		final := i == len(l.segIdx)-1
		head, torn, err := readSegHead(dir, idx)
		if err != nil {
			return err
		}
		if !torn {
			_, torn, err = scanSegment(dir, idx, head.Base, func(Record) error { return nil })
			if err != nil {
				return err
			}
		}
		if torn && !final {
			return fmt.Errorf("%w: sealed segment %s is torn", ErrStoreCorrupt, segName(idx))
		}
	}
	for _, seq := range l.ckptSeqs {
		if _, err := readCheckpointFile(dir, seq); err != nil {
			return err
		}
	}
	if len(l.segIdx) == 0 {
		return nil
	}
	_, err = recoverStoreDir(dir, true)
	return err
}

// ScanDir streams every record of every segment in dir, oldest segment
// first, as its decoded Event view, naming the segment each came from —
// the read behind `marketctl journal-info -dump`. It stops at the first
// damaged record with the error that locates it.
func ScanDir(dir string, fn func(segment string, e Event) error) error {
	l, err := listStoreDir(dir)
	if err != nil {
		return err
	}
	for _, idx := range l.segIdx {
		head, torn, err := readSegHead(dir, idx)
		if err != nil {
			return err
		}
		if torn {
			continue // a rotation cut before its seghead landed: no records
		}
		if _, _, err := scanSegment(dir, idx, head.Base, func(rec Record) error {
			e, err := rec.Event()
			if err != nil {
				return err
			}
			return fn(segName(idx), e)
		}); err != nil {
			return err
		}
	}
	return nil
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
