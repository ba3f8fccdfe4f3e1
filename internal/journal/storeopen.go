// Opening and recovering segmented stores: directory listing, the
// bounded-tail recovery walk, the leader's OpenStore, a replication
// follower's OpenFollower and ReseedFollower, and the read-only
// inspection used by `marketctl journal-info` and /readyz.
package journal

import (
	"bytes"
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
	lastCkpt int64   // the newest checkpoint's seq, 0 for none
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
	if n := len(l.ckptSeqs); n > 0 {
		l.lastCkpt = l.ckptSeqs[n-1]
	}
	return &l, nil
}

// storeState is what recovery learned about a directory: the chain, with
// its tail-repair instructions (applied by OpenStore, reported only by
// read-only recovery), and the state replayed onto the newest checkpoint.
type storeState struct {
	chain
	m        *market.Market // nil when the store holds no durable state
	state    *command.State // the state m wraps
	lastSeq  int64
	replayed int           // records streamed through command.ApplyEncoded — the bounded tail
	took     time.Duration // the walk, checkpoint load and view derivation included
	views    time.Duration // the view derivation alone (market.FromState)
}

// recoverStoreDir is the bounded-tail recovery walk over l, dir's
// listing: it restores the newest checkpoint — written atomically, so
// one present but undecodable is corruption, not a crash artifact —
// replays the chain's records past it onto the bare state (replay), and
// builds the market and its read views from that once. The caller
// applies the tail-repair instructions. scanCovered reads the sealed
// segments the checkpoint covers too.
func recoverStoreDir(dir string, l *dirListing, scanCovered bool) (*storeState, error) {
	start := time.Now()
	st := &storeState{}
	var rp replay
	if l.lastCkpt > 0 {
		snap, err := readCheckpointFile(dir, l.lastCkpt)
		if err != nil {
			return nil, err
		}
		if rp.st, err = command.RestoreState(snap); err != nil {
			return nil, fmt.Errorf("journal: checkpoint %s: %w", ckptName(l.lastCkpt), err)
		}
	}
	var err error
	st.chain, err = walkChain(dir, l, scanCovered, func(_ int64, rec Record) error {
		if rec.Seq <= l.lastCkpt {
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
	if st.lastSeq = st.end; st.lastSeq < l.lastCkpt {
		// The checkpoint outran the surviving records (no-fsync mode
		// crash): the checkpoint is the newest durable truth, and the
		// tail segment's stale records are already inside it.
		st.lastSeq = l.lastCkpt
		st.resetTail = true
	}
	if rp.st != nil {
		derive := time.Now()
		st.m, st.state = market.FromState(rp.st), rp.st
		st.views = time.Since(derive)
	}
	st.took = time.Since(start)
	return st, nil
}

// openStore is OpenStore's and OpenFollower's prologue: it makes dir
// if need be, recovers it, reports the recovery on the telemetry opts
// name, and returns the store over the recovered chain with its tail
// repaired and open for appending — or, when dir holds no durable state,
// with no active segment.
func openStore(dir string, sc StoreConfig, opts []Option) (*Store, *storeState, error) {
	sc.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, notStoreDir(dir, err)
	}
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, tmp := range l.tmps {
		os.Remove(filepath.Join(dir, tmp)) // a checkpoint or migration cut short
	}
	st, err := recoverStoreDir(dir, l, false)
	if err != nil {
		return nil, nil, err
	}
	var w Writer
	for _, o := range opts {
		o(&w)
	}
	recovered(w.telemetry, st)
	s := &Store{dir: dir, sc: sc, segs: st.segs, ckpts: l.ckptSeqs, lastCkpt: l.lastCkpt, live: st.m}
	if st.m != nil {
		if err := s.attachTail(st); err != nil {
			return nil, nil, err
		}
		s.appliedSeq = st.lastSeq
		s.sinceCkpt = st.lastSeq - l.lastCkpt // keep the cadence across restarts
	}
	return s, st, nil
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
	s, st, err := openStore(dir, sc, opts)
	if err != nil {
		return nil, 0, err
	}
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
	}

	w := NewWriter(s, opts...)
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

// OpenFollower recovers a replication follower's store in dir as
// OpenStore does and returns the market it holds, nil when dir holds no
// state yet (the follower's first catch-up reseeds it). Each replicated
// record then goes through the market's commit stage, as on the leader
// (see following), with the store as its sink through followerSink. Of
// opts only WithTelemetry matters: it registers the recovery gauges.
func OpenFollower(dir string, sc StoreConfig, opts ...Option) (*Market, error) {
	s, st, err := openStore(dir, sc, opts)
	if err != nil || st.m == nil {
		return nil, err
	}
	return following(s.live, followerSink{s}, s, st.lastSeq), nil
}

// ReseedFollower moves m, the market RestoreFollower built from
// snapshot — a leader's Snapshot.Canonical bytes — onto the store in
// dir, in place of old, the market a follower served over it (nil for
// none). It closes old without the final checkpoint Store.Close cuts,
// since the wipe deletes it, but waits out any checkpoint still being
// written; it then deletes dir's segments, checkpoints and temporary
// files, lands snapshot as the checkpoint at m's seq and starts a
// segment past it. On error m is as it was, in memory. It registers no
// instrument.
func ReseedFollower(old, m *Market, dir string, sc StoreConfig, snapshot []byte) (*Market, error) {
	if old != nil {
		if old.store != nil {
			old.store.shut() // a failed old store is what is being replaced
		}
		old.w.Close()
	}
	seq := m.LastSeq()
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, err
	}
	doomed := l.tmps
	for _, idx := range l.segIdx {
		doomed = append(doomed, segName(idx))
	}
	for _, cs := range l.ckptSeqs {
		doomed = append(doomed, ckptName(cs))
	}
	for _, name := range doomed {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	err = writeCheckpointFile(dir, seq, func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("journal: landing the leader's checkpoint: %w", err)
	}
	f, headLen, err := createSegment(dir, 0, seq+1, false)
	if err != nil {
		return nil, err
	}
	sc.applyDefaults()
	s := &Store{dir: dir, sc: sc, segs: []segMeta{{index: 0, base: seq + 1, bytes: headLen}}, active: f,
		ckpts: []int64{seq}, lastCkpt: seq, live: m.Market, appliedSeq: seq}
	return following(m.Market, followerSink{s}, s, seq), nil
}

// followerSink is a follower's store as its writer's sink. A store
// failure stays in Store.Err, sticky, and never reaches the writer: the
// follower keeps applying and serving in memory, and the store takes no
// further record or checkpoint.
type followerSink struct{ s *Store }

func (fs followerSink) Write(p []byte) (int, error) { return fs.writeGroup(p, 1) }

func (fs followerSink) writeGroup(p []byte, records int) (int, error) {
	_, _ = fs.s.writeGroup(p, records)
	return len(p), nil
}

func (fs followerSink) Sync() error {
	_ = fs.s.Sync()
	return nil
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
		idx, base := segIndexAfter(st.segs), st.lastSeq+1
		f, headLen, err := createSegment(s.dir, idx, base, false)
		if errors.Is(err, os.ErrExist) {
			f, headLen, err = createSegment(s.dir, idx, base, true)
		}
		if err != nil {
			return err
		}
		s.segs = append(st.segs, segMeta{index: idx, base: base, bytes: headLen})
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
	l, err := listStoreDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := recoverStoreDir(dir, l, false)
	if err != nil {
		return nil, 0, 0, err
	}
	if st.m == nil {
		return nil, 0, 0, ErrNoGenesis
	}
	return st.m, st.lastSeq, st.replayed, nil
}

// CheckRecovery recovers dir read-only, as RecoverDir does, and checks
// that it rebuilds live exactly: the same newest seq and the same
// canonical bytes. live must be quiescent. Only a mismatch builds the
// two snapshot trees, to name the sections that differ.
func CheckRecovery(dir string, live *Market) error {
	m, seq, _, err := RecoverDir(dir)
	if err != nil {
		return fmt.Errorf("journal: recovery failed: %w", err)
	}
	if want := live.LastSeq(); seq != want {
		return fmt.Errorf("journal: recovery reached seq %d, live at %d", seq, want)
	}
	if !bytes.Equal(m.Canonical(), live.Canonical()) {
		return fmt.Errorf("journal: recovery does not rebuild live state: %s", m.Snapshot().Diff(live.Snapshot()))
	}
	return nil
}
