// The segment chain reader: recovery, `marketctl journal-verify`,
// `journal-info` and its -dump all walk a store's segments here, so each
// refuses a broken chain alike (`make vet` keeps them here).
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// chain is what walkChain learned about a store's segments.
type chain struct {
	segs []segMeta // oldest first; a final segment with a torn seghead is left out
	end  int64     // seq of the last record the chain holds, 0 for none
	// The final segment's state: a torn trailing record (durable is the
	// byte length of the prefix before it), or a torn seghead — a crash
	// mid-rotation, so the segment must be rebuilt (resetTail).
	torn      bool
	durable   int64
	resetTail bool
}

// walkChain reads the segment chain l lists and refuses one that does
// not hold every record past the newest checkpoint, once, in order:
// segment indices are contiguous; each seghead has the current version
// and its own index; a torn seghead or tail is legal only in the final
// segment; bases advance, the oldest reaching the checkpoint; and a
// sealed segment holds every seq up to the next base, falling short only
// over seqs the checkpoint covers — a no-fsync crash can lose records the
// checkpoint captured, and the tail reset that repairs it starts the
// next segment at checkpoint+1.
//
// fn sees every record scanned, in order, with its segment's index.
// Unless scanCovered, a sealed segment the checkpoint covers is counted
// from the bases, not read: that skip keeps recovery O(records since the
// checkpoint).
func walkChain(dir string, l *dirListing, scanCovered bool, fn func(seg int64, rec Record) error) (chain, error) {
	var c chain
	for i := 1; i < len(l.segIdx); i++ {
		if l.segIdx[i] != l.segIdx[i-1]+1 {
			return c, fmt.Errorf("%w: %s (chain jumps %s to %s)", ErrSegmentMissing,
				segName(l.segIdx[i-1]+1), segName(l.segIdx[i-1]), segName(l.segIdx[i]))
		}
	}

	for i, idx := range l.segIdx {
		head, torn, err := readSegHead(dir, idx)
		if err != nil {
			return c, err
		}
		if torn {
			if i != len(l.segIdx)-1 {
				return c, fmt.Errorf("%w: sealed segment %s has a torn seghead", ErrStoreCorrupt, segName(idx))
			}
			c.resetTail = true
			break
		}
		if i > 0 && head.Base <= c.segs[i-1].base {
			return c, fmt.Errorf("%w: segment %s base %d does not advance past %s base %d",
				ErrStoreCorrupt, segName(idx), head.Base, segName(l.segIdx[i-1]), c.segs[i-1].base)
		}
		c.segs = append(c.segs, segMeta{index: idx, base: head.Base})
	}
	if len(c.segs) > 0 && c.segs[0].base > l.lastCkpt+1 {
		return c, fmt.Errorf("%w: %s (recovery needs seq %d, oldest segment %s starts at %d)",
			ErrSegmentMissing, segName(l.segIdx[0]-1), l.lastCkpt+1, segName(l.segIdx[0]), c.segs[0].base)
	}

	for i := range c.segs {
		seg, sealed := &c.segs[i], i < len(c.segs)-1
		if fi, err := os.Stat(filepath.Join(dir, segName(seg.index))); err == nil {
			seg.bytes = fi.Size()
		}
		if sealed {
			seg.records = c.segs[i+1].base - seg.base
		}
		if !sealed || scanCovered || seg.maxSeq() > l.lastCkpt {
			var n int64
			durable, torn, err := scanSegment(dir, seg.index, seg.base, func(rec Record) error {
				n++
				return fn(seg.index, rec)
			})
			if err != nil {
				return c, err
			}
			final := !sealed && !c.resetTail
			if torn && !final {
				return c, fmt.Errorf("%w: sealed segment %s has a torn tail", ErrStoreCorrupt, segName(seg.index))
			}
			if sealed && n != seg.records && (n > seg.records || seg.maxSeq() > l.lastCkpt) {
				return c, fmt.Errorf("%w: segment %s holds %d records, next seghead implies %d",
					ErrStoreCorrupt, segName(seg.index), n, seg.records)
			}
			seg.records = n
			if final {
				c.torn, c.durable = torn, durable
			}
		}
		c.end = seg.maxSeq()
	}
	return c, nil
}

// readSegHead reads and validates a segment's first line. A missing or
// newline-less first line is reported as torn (legal only for the
// final segment, whose seghead write may have been cut mid-rotation) —
// unless bytes follow its closing brace: a cut seghead is a prefix of
// the line, so that is a rotted newline in front of live records, and
// believing the tear would rebuild the segment over them. Any parse
// failure is corruption.
func readSegHead(dir string, index int64) (head segHead, torn bool, err error) {
	name := segName(index)
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return segHead{}, false, err
	}
	defer f.Close()
	line, rerr := bufio.NewReader(f).ReadBytes('\n')
	if rerr == io.EOF {
		if i := bytes.IndexByte(line, '}'); i >= 0 && i < len(line)-1 {
			return segHead{}, false, fmt.Errorf("%w: %s: %d bytes follow a seghead with no newline", ErrStoreCorrupt, name, len(line)-1-i)
		}
		return segHead{}, true, nil // empty or torn seghead
	}
	if rerr != nil {
		return segHead{}, false, rerr
	}
	if uerr := json.Unmarshal(line, &head); uerr != nil || head.Op != opSegHead {
		return segHead{}, false, fmt.Errorf("%w: %s has no seghead", ErrStoreCorrupt, name)
	}
	if head.V != FormatVersion {
		return segHead{}, false, errNeedsMigrate(fmt.Sprintf("segment %s has version %d", name, head.V), dir)
	}
	if head.Index != index {
		return segHead{}, false, fmt.Errorf("%w: %s claims index %d", ErrStoreCorrupt, name, head.Index)
	}
	return head, false, nil
}

// scanSegment streams one segment's records (seghead skipped) through
// fn, enforcing seq continuity from base; durable and torn are
// ScanRecords', with durable counting from the start of the file.
// Damage is reported as a *CorruptError naming the segment file.
func scanSegment(dir string, index, base int64, fn func(Record) error) (durable int64, torn bool, err error) {
	f, err := os.Open(filepath.Join(dir, segName(index)))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	return scanSegmentFile(f, base, fn)
}
