// Opening and recovering segmented stores: directory listing, the
// bounded-tail recovery walk, the leader-mode OpenStore constructor,
// the replica-mode store a follower persists through, and the
// read-only inspection used by `marketctl journal-info` and /readyz.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// dirListing is the raw contents of a store directory.
type dirListing struct {
	segIdx   []int64 // ascending
	ckptSeqs []int64 // ascending
	tmps     []string
}

func listStoreDir(dir string) (*dirListing, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, notStoreDir(dir, err)
	}
	var l dirListing
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, segSuffix):
			n, err := strconv.ParseInt(strings.TrimSuffix(name, segSuffix), 10, 64)
			if err != nil {
				continue // not ours
			}
			l.segIdx = append(l.segIdx, n)
		case strings.HasSuffix(name, ckptSuffix):
			n, err := strconv.ParseInt(strings.TrimSuffix(name, ckptSuffix), 10, 64)
			if err != nil {
				continue
			}
			l.ckptSeqs = append(l.ckptSeqs, n)
		case strings.HasSuffix(name, tmpSuffix):
			l.tmps = append(l.tmps, name)
		}
	}
	sort.Slice(l.segIdx, func(i, j int) bool { return l.segIdx[i] < l.segIdx[j] })
	sort.Slice(l.ckptSeqs, func(i, j int) bool { return l.ckptSeqs[i] < l.ckptSeqs[j] })
	return &l, nil
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

// storeState is what recovery learned about a directory.
type storeState struct {
	m        *market.Market // nil when the store holds no durable state
	state    *command.State // the state m wraps
	lastSeq  int64
	replayed int           // records streamed through command.ApplyEncoded — the bounded tail
	took     time.Duration // the walk, checkpoint load and view derivation included
	views    time.Duration // the view derivation alone (market.FromState)
	segs     []segMeta
	ckpts    []int64
	lastCkpt int64

	// Tail repair instructions (applied by OpenStore, reported only by
	// read-only recovery).
	torn      bool  // final segment has a torn trailing record
	durable   int64 // byte length of the final segment's durable prefix
	resetTail bool  // final segment unusable: recreate with tailBase
	tailBase  int64
}

// recoverStoreDir performs the bounded-tail recovery walk. readonly
// recoveries (inspection, benchmarks, post-run invariant checks) leave
// the directory untouched; writable ones remove stray tmp files, and
// the caller applies the tail-repair instructions.
func recoverStoreDir(dir string, readonly bool) (*storeState, error) {
	start := time.Now()
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, err
	}
	if !readonly {
		for _, tmp := range l.tmps {
			os.Remove(filepath.Join(dir, tmp))
		}
	}
	st := &storeState{ckpts: l.ckptSeqs}
	if len(l.segIdx) == 0 {
		return st, nil
	}
	for i := 1; i < len(l.segIdx); i++ {
		if l.segIdx[i] != l.segIdx[i-1]+1 {
			return nil, fmt.Errorf("%w: %s (chain jumps %s to %s)", ErrSegmentMissing,
				segName(l.segIdx[i-1]+1), segName(l.segIdx[i-1]), segName(l.segIdx[i]))
		}
	}

	// Newest decodable checkpoint seeds the state the tail replays onto
	// (replay); the market and its read views are built from it once,
	// after the walk. Checkpoints are written atomically, so a
	// present-but-undecodable one is corruption, not a crash artifact.
	var rp replay
	if n := len(l.ckptSeqs); n > 0 {
		st.lastCkpt = l.ckptSeqs[n-1]
		snap, err := readCheckpointFile(dir, st.lastCkpt)
		if err != nil {
			return nil, err
		}
		if rp.st, err = command.RestoreState(snap); err != nil {
			return nil, fmt.Errorf("journal: checkpoint %s: %w", ckptName(st.lastCkpt), err)
		}
		st.lastSeq = st.lastCkpt
	}

	// Read every seghead up front: base chaining is what lets recovery
	// skip a sealed segment's body entirely.
	last := len(l.segIdx) - 1
	heads := make([]segHead, len(l.segIdx))
	for i, idx := range l.segIdx {
		head, torn, err := readSegHead(dir, idx)
		if err != nil {
			return nil, err
		}
		if torn {
			if i != last {
				return nil, fmt.Errorf("%w: sealed segment %s has a torn seghead", ErrStoreCorrupt, segName(idx))
			}
			// Crash mid-rotation: the final segment exists but its
			// seghead never landed. Rebuild it empty; its base is the
			// seq after everything the previous segments hold.
			st.resetTail = true
			heads = heads[:last]
			break
		}
		if i > 0 && head.Base <= heads[i-1].Base {
			return nil, fmt.Errorf("%w: segment %s base %d does not advance past %s base %d",
				ErrStoreCorrupt, segName(idx), head.Base, segName(l.segIdx[i-1]), heads[i-1].Base)
		}
		heads[i] = head
	}

	// The oldest segment must reach back to the checkpoint: its base
	// may be at most lastCkpt+1, or replay has a hole. This is the
	// deleted-segment canary's trip wire when the chain is still
	// contiguous but its head was cut off.
	if len(heads) > 0 {
		if first := heads[0]; first.Base > st.lastCkpt+1 {
			return nil, fmt.Errorf("%w: %s (recovery needs seq %d, oldest segment %s starts at %d)",
				ErrSegmentMissing, segName(l.segIdx[0]-1), st.lastCkpt+1, segName(l.segIdx[0]), first.Base)
		}
	}

	prevEnd := int64(0) // maxSeq of the previous segment, once known
	for i := range heads {
		seg := segMeta{index: l.segIdx[i], base: heads[i].Base}
		if fi, err := os.Stat(filepath.Join(dir, segName(seg.index))); err == nil {
			seg.bytes = fi.Size()
		}
		if i > 0 && seg.base != prevEnd+1 {
			// A forward jump is legal only when a checkpoint covers the
			// hole: a no-fsync crash can lose records the checkpoint
			// already captured, and the tail reset that repairs it
			// starts the next segment at checkpoint+1.
			if seg.base < prevEnd+1 || seg.base > st.lastCkpt+1 {
				return nil, fmt.Errorf("%w: segment %s base %d, want %d", ErrStoreCorrupt, segName(seg.index), seg.base, prevEnd+1)
			}
		}
		// A sealed segment's record count comes from the next seghead;
		// skip its body when the checkpoint covers it.
		if i < len(heads)-1 {
			seg.records = heads[i+1].Base - seg.base
			prevEnd = seg.maxSeq()
			if seg.maxSeq() <= st.lastCkpt {
				st.segs = append(st.segs, seg)
				continue
			}
		}
		final := i == len(heads)-1 && !st.resetTail
		n := int64(0)
		durable, torn, err := scanSegment(dir, seg.index, seg.base, func(rec Record) error {
			n++
			if rec.Seq <= st.lastCkpt {
				return nil // already inside the checkpoint
			}
			if err := rp.record(rec); err != nil {
				return err
			}
			st.replayed++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if torn && !final {
			return nil, fmt.Errorf("%w: sealed segment %s has a torn tail", ErrStoreCorrupt, segName(seg.index))
		}
		if i < len(heads)-1 && n != seg.records {
			return nil, fmt.Errorf("%w: segment %s holds %d records, next seghead implies %d",
				ErrStoreCorrupt, segName(seg.index), n, seg.records)
		}
		seg.records = n
		if seg.records > 0 {
			st.lastSeq = seg.maxSeq()
		}
		prevEnd = seg.maxSeq()
		if final {
			st.torn, st.durable = torn, durable
		}
		st.segs = append(st.segs, seg)
	}
	if st.lastSeq < st.lastCkpt {
		// The checkpoint outran the surviving records (no-fsync mode
		// crash): the checkpoint is the newest durable truth, and the
		// tail segment's stale records are already inside it.
		st.lastSeq = st.lastCkpt
		st.resetTail = true
	}
	if st.resetTail {
		st.tailBase = st.lastSeq + 1
	}
	if rp.st != nil {
		derive := time.Now()
		st.m, st.state = market.FromState(rp.st), rp.st
		st.views = time.Since(derive)
	}
	st.took = time.Since(start)
	return st, nil
}

// OpenStore creates or recovers a segmented journaled market in dir.
// On recovery it restores the newest checkpoint and replays only the
// tail segments — cost is O(records since last checkpoint), not
// O(history) — then resumes appending into the final segment. A torn
// trailing record is truncated away and the repair fsynced; a segment
// cut mid-rotation is rebuilt. The directory's own genesis wins over
// cfg: mixing configurations would silently diverge the replay. It
// returns the number of tail records replayed.
func OpenStore(cfg market.Config, dir string, sc StoreConfig, opts ...Option) (*Market, int, error) {
	sc.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, notStoreDir(dir, err)
	}
	st, err := recoverStoreDir(dir, false)
	if err != nil {
		return nil, 0, err
	}

	s := &Store{dir: dir, sc: sc, segs: st.segs, ckpts: st.ckpts, lastCkpt: st.lastCkpt, live: st.m}
	if st.m == nil {
		// Nothing durable (fresh directory, or a crash before the very
		// first record survived): start a store from scratch. Any
		// broken segment 0 is rebuilt in place.
		if s.live, err = market.New(cfg); err != nil {
			return nil, 0, err
		}
		f, headLen, err := createSegment(dir, 0, 1, len(st.segs) > 0 || st.resetTail)
		if err != nil {
			return nil, 0, err
		}
		s.segs = []segMeta{{index: 0, base: 1, bytes: headLen}}
		s.active = f
	} else {
		// Tail repair, then resume appending into the final segment.
		if err := s.attachTail(st); err != nil {
			return nil, 0, err
		}
		s.appliedSeq = st.lastSeq
		s.sinceCkpt = st.lastSeq - st.lastCkpt // keep the cadence across restarts
	}

	w := NewWriter(s, opts...)
	recovered(w.telemetry, st)
	w.live, w.onGroup = s.live, s.committed
	if st.m == nil {
		if err := w.Genesis(cfg); err != nil {
			s.Close()
			return nil, 0, err
		}
	} else {
		w.started, w.seq = true, st.lastSeq // the log continues after its last record
	}
	return journaled(s.live, w, s), st.replayed, nil
}

// notStoreDir explains err, a failure to use dir as a store, when dir is
// a regular file: almost always a journal file an older build kept,
// handed to a reader that wants a directory, so the way out is named
// instead of "not a directory".
func notStoreDir(dir string, err error) error {
	if fi, serr := os.Stat(dir); serr == nil && fi.Mode().IsRegular() {
		return fmt.Errorf("%w: %s is a regular file — if it is a journal file an older build kept, run `marketctl journal-migrate %s` once and open the store it makes, %s.d", ErrNotStoreDir, dir, dir, dir)
	}
	return err
}

// attachTail repairs the recovered chain's final segment and opens it
// for appending: a torn trailing record is truncated away (the repair
// fsynced, file then directory), a segment cut mid-rotation is rebuilt
// in place, and a checkpoint that outran the surviving records gets a
// fresh segment starting at checkpoint+1.
func (s *Store) attachTail(st *storeState) error {
	if st.resetTail {
		idx := segIndexAfter(st.segs)
		f, headLen, err := createSegment(s.dir, idx, st.tailBase, false)
		if errors.Is(err, os.ErrExist) {
			f, headLen, err = createSegment(s.dir, idx, st.tailBase, true)
		}
		if err != nil {
			return err
		}
		s.segs = append(st.segs, segMeta{index: idx, base: st.tailBase, bytes: headLen})
		s.active = f
		return nil
	}
	tail := &s.segs[len(s.segs)-1]
	if st.torn {
		path := filepath.Join(s.dir, segName(tail.index))
		if err := repairTornTail(path, st.durable); err != nil {
			return err
		}
		tail.bytes = st.durable
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(tail.index)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.active = f
	return nil
}

// segIndexAfter returns the index the next segment should use given
// the surviving chain (0 for an empty chain).
func segIndexAfter(segs []segMeta) int64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].index + 1
}

// RecoverDir rebuilds the market a store directory describes without
// touching the directory: read-only recovery for inspection,
// benchmarks, and post-run invariant checks. It returns the market,
// the seq of its newest record, and how many tail records were
// replayed past the checkpoint.
func RecoverDir(dir string) (*market.Market, int64, int, error) {
	st, err := recoverStoreDir(dir, true)
	if err != nil {
		return nil, 0, 0, err
	}
	if st.m == nil {
		return nil, 0, 0, ErrNoGenesis
	}
	return st.m, st.lastSeq, st.replayed, nil
}
