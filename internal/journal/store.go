// Segmented journal storage: a directory of sealed segment files plus
// snapshot checkpoints — what every persistent market is kept in. The
// Store is the journal Writer's sink: it rotates the file under the
// Writer's single-Write record discipline, so group commit, fsync
// policy, telemetry and the commit hook are the Writer's alone.
//
// # Layout
//
//	dir/00000000.seg        segment files, monotone indexes
//	dir/00000001.seg        first line: seghead record (version + base seq)
//	dir/...                 then ordinary journal records, contiguous seq
//	dir/00000000000047.ckpt snapshot checkpoints, named by covered seq
//	dir/*.tmp               in-flight checkpoint/migration; removed on open
//
// A segment's records are exactly the bytes the Writer hands any sink
// (frame.go) — concatenating every segment's body (seghead lines
// stripped) reproduces the log Restore reads. The seghead is one
// newline-terminated JSON line of store metadata, not a record: it
// carries the format version of the build that created the segment and
// the sequence number of the segment's first record, so recovery can
// chain segments and skip sealed ones without scanning them. A checkpoint
// is
//
//	tag(1) | version(1) | seq u64 | snapshot | crc32c u32
//
// little-endian, the snapshot being market.Snapshot.Canonical's bytes and
// the CRC32C covering every byte before it. A store an older build left
// — JSON-line records, a seghead version other than 3, a JSON checkpoint
// — is refused with ErrVersion until `marketctl journal-migrate` has
// rewritten it once (migrate.go).
//
// # Rotation and durability
//
// The active segment rotates once it holds at least SegmentRecords
// records or SegmentBytes bytes: the old file is fsynced and closed
// (sealed segments therefore never hold a torn tail — a tear before
// the final segment is real corruption), and the new file is created,
// its seghead written, the file and directory fsynced, before the
// record that triggered rotation is written. A group-commit batch is
// one Write, so a group never splits across segments; segments may
// overshoot the thresholds by at most one batch.
//
// # Checkpoints and compaction
//
// Every CheckpointEvery committed records the store cuts the serving
// market (command.Cut) from inside the commit stage, right after a
// group reached the sink — the one applier holds the market there, so
// the cut is exactly the state at that group's last seq — and writes it
// to a checkpoint file with the temp+rename+dir-fsync discipline: a
// crash leaves either the old checkpoint set or the new one, never a
// torn checkpoint. The encoding and the file write run on a background
// goroutine; only the cut happens on the commit path. After a
// checkpoint lands, compaction deletes sealed segments wholly covered
// by it (keeping RetainSegments spares) and old checkpoint files,
// while appends keep flowing.
//
// # Recovery
//
// Recovery is O(tail): open the newest checkpoint, restore its
// snapshot as a bare command.State, stream only the segments holding
// records past the checkpoint seq through command.ApplyEncoded, and
// wrap the finished state in a market once (replay) — sealed segments
// wholly covered by the checkpoint are skipped using seghead chaining
// alone, and no whole-history []Event slice is ever built. A torn tail
// in the final segment is truncated and the repair fsynced (file then
// directory); a final segment whose own seghead was torn mid-rotation is
// rebuilt in place. A missing segment — compaction gone wrong, operator
// error — fails recovery with the missing file's name.
package journal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// Store layout constants.
const (
	segSuffix  = ".seg"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
	opSegHead  = "seghead"
)

// Store-specific sentinel errors.
var (
	// ErrSegmentMissing marks a gap in the segment chain: a segment
	// recovery still needs is gone. The wrapping error names the file.
	ErrSegmentMissing = errors.New("journal: segment missing")
	// ErrStoreCorrupt marks damage no crash can produce: a torn sealed
	// segment, a malformed seghead, an undecodable checkpoint.
	ErrStoreCorrupt = errors.New("journal: store corrupt")
	// ErrNotStoreDir marks a store path that names a regular file; the
	// wrapping error says what to do about it.
	ErrNotStoreDir = errors.New("journal: not a store directory")
)

// StoreConfig tunes a segmented store. Zero values select defaults.
type StoreConfig struct {
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes (default 8 MiB).
	SegmentBytes int64
	// SegmentRecords rotates the active segment once it holds this many
	// records (default 65536).
	SegmentRecords int64
	// CheckpointEvery writes a snapshot checkpoint every N committed
	// records (default 10000). Negative disables checkpointing (and
	// therefore compaction).
	CheckpointEvery int64
	// RetainSegments is how many checkpoint-covered sealed segments to
	// keep beyond what recovery needs (default 0: delete them all).
	// Negative keeps every segment forever.
	RetainSegments int
}

func (sc *StoreConfig) applyDefaults() {
	if sc.SegmentBytes == 0 {
		sc.SegmentBytes = 8 << 20
	}
	if sc.SegmentRecords == 0 {
		sc.SegmentRecords = 1 << 16
	}
	if sc.CheckpointEvery == 0 {
		sc.CheckpointEvery = 10000
	}
}

// segHead is the first line of every segment file. It is store
// metadata, not a journal Event: Base is the sequence number of the
// segment's first record, so recovery can chain segments and compute a
// sealed segment's coverage without scanning its body.
type segHead struct {
	Op    string `json:"op"` // always "seghead"
	V     int    `json:"v"`
	Base  int64  `json:"base"`
	Index int64  `json:"index"`
}

// segMeta is the store's in-memory bookkeeping for one segment.
type segMeta struct {
	index   int64
	base    int64 // seq of the first record
	records int64
	bytes   int64
}

func (m segMeta) maxSeq() int64 { return m.base + m.records - 1 }

func segName(index int64) string { return fmt.Sprintf("%08d%s", index, segSuffix) }
func ckptName(seq int64) string  { return fmt.Sprintf("%014d%s", seq, ckptSuffix) }

// Store is a segmented, checkpointed journal sink. It implements
// io.Writer (with Sync) so a journal Writer appends through it
// unchanged, plus the per-group bookkeeping that drives checkpoints.
// Safe for concurrent use.
type Store struct {
	dir string
	sc  StoreConfig

	mu     sync.Mutex
	segs   []segMeta // ascending by index; last is the active segment
	active *os.File
	err    error // sticky store failure
	closed bool

	// Checkpoint state. live is the serving market — a leader's or a
	// follower's — and the only copy of the state there is: its one
	// applier, the Writer's commit stage, calls committed with the
	// market's writer mutex held and the market exactly at the seq just
	// written, and that is where cadence checkpoints are cut.
	live       *market.Market
	appliedSeq int64
	lastCkpt   int64   // newest durable checkpoint seq, 0 = none
	ckpts      []int64 // durable checkpoint seqs, ascending
	sinceCkpt  int64
	ckptDone   chan struct{} // non-nil while a checkpoint is being cut; closed when it lands or fails

	wg sync.WaitGroup // in-flight checkpoint writes
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Err returns the store's sticky failure, nil while healthy. A failed
// rotation poisons the Writer through the normal sink-error path; a
// failed checkpoint write poisons only the store — appends still
// succeed, but recovery cost is no longer bounded, so readiness probes
// must surface it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// poison makes err the store's sticky failure, unless it has one.
func (s *Store) poison(err error) {
	s.mu.Lock()
	s.err = cmp.Or(s.err, err)
	s.mu.Unlock()
}

// LastCheckpoint returns the newest durable checkpoint's seq, 0 when
// none has been written yet.
func (s *Store) LastCheckpoint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCkpt
}

// Checkpoint writes a snapshot checkpoint of the current committed
// state synchronously — the same artifact the background cadence
// produces, followed by the same compaction pass. Operational tooling
// calls it to bound the recovery tail at a known point: before a
// backup, a measured restart, or a benchmark run. An in-flight
// background checkpoint is waited out first; a checkpoint that is
// already current is a no-op.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	for s.err == nil && !s.closed && s.ckptDone != nil {
		done := s.ckptDone
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
	if s.err != nil {
		defer s.mu.Unlock()
		return s.err
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.appliedSeq == 0 || s.lastCkpt == s.appliedSeq {
		s.mu.Unlock()
		return nil
	}
	s.ckptDone = make(chan struct{})
	s.mu.Unlock()
	cut, seq, err := s.committedCut()
	if err != nil {
		s.mu.Lock()
		close(s.ckptDone)
		s.ckptDone = nil
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.sinceCkpt = 0
	s.mu.Unlock()
	s.wg.Add(1)
	s.checkpoint(cut, seq)
	return s.Err()
}

// committedCut cuts the serving market, and the seq it stands at, from
// outside the commit stage. Holding the market's writer mutex
// keeps the stage out — it holds that mutex from a group's first apply
// until committed has run — so state and seq are aligned; a store whose
// sink failed refuses, because its market has applied commands the
// segments do not hold.
func (s *Store) committedCut() (*command.Cut, int64, error) {
	live := s.live.Stage()
	live.Lock()
	defer live.Unlock()
	s.mu.Lock()
	seq, err := s.appliedSeq, s.err
	s.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return live.Cut(), seq, nil
}

// Write appends p, one record, to the active segment (io.Writer); the
// Writer calls writeGroup.
func (s *Store) Write(p []byte) (int, error) { return s.writeGroup(p, 1) }

// writeGroup appends one group-commit batch — records whole records in
// p, by the Writer's contract — to the active segment, rotating first
// when the segment is full.
func (s *Store) writeGroup(p []byte, records int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, ErrClosed
	}
	cur := &s.segs[len(s.segs)-1]
	if cur.records > 0 && (cur.bytes >= s.sc.SegmentBytes || cur.records >= s.sc.SegmentRecords) {
		if err := s.rotateLocked(); err != nil {
			s.err = err
			return 0, err
		}
		cur = &s.segs[len(s.segs)-1]
	}
	n, err := s.active.Write(p)
	if err != nil {
		// The Writer poisons itself on this; the store does too, because
		// the market above it has applied what this write lost and must
		// never be checkpointed again.
		s.err = err
		return n, err
	}
	cur.bytes += int64(n)
	cur.records += int64(records)
	return n, nil
}

// Sync fsyncs the active segment (the Writer's WithFsync and Close
// path).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		s.err = err // as in Write: the market is ahead of the disk
		return err
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one. Called with mu held.
func (s *Store) rotateLocked() error {
	cur := s.segs[len(s.segs)-1]
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("journal: sealing %s: %w", segName(cur.index), err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("journal: sealing %s: %w", segName(cur.index), err)
	}
	next := segMeta{index: cur.index + 1, base: cur.base + cur.records}
	f, headLen, err := createSegment(s.dir, next.index, next.base, false)
	if err != nil {
		return err
	}
	next.bytes = headLen
	s.active = f
	s.segs = append(s.segs, next)
	return nil
}

// createSegment creates dir/NNNNNNNN.seg, writes its seghead line, and
// makes both the file content and the directory entry durable before
// any record can land in it. truncate recreates an existing (broken)
// file in place; otherwise creation is exclusive.
func createSegment(dir string, index, base int64, truncate bool) (*os.File, int64, error) {
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	} else {
		flags |= os.O_EXCL
	}
	path := filepath.Join(dir, segName(index))
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: creating segment: %w", err)
	}
	head := segHeadLine(index, base)
	if _, err := f.Write(head); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal: writing seghead of %s: %w", segName(index), err)
	}
	return f, int64(len(head)), nil
}

// segHeadLine is the seghead of segment index, whose first record is
// base, as this build writes it.
func segHeadLine(index, base int64) []byte {
	head, _ := json.Marshal(segHead{Op: opSegHead, V: FormatVersion, Base: base, Index: index})
	return append(head, '\n')
}

// committed is the store's per-group bookkeeping: records more records
// have reached the segments, the newest is lastSeq, and the serving
// market stands exactly there. The caller is the commit stage, which
// holds the market's writer mutex, so a due checkpoint cuts the market on
// the spot; the encoding and the file write move to a goroutine.
func (s *Store) committed(lastSeq int64, records int) {
	s.mu.Lock()
	s.appliedSeq = lastSeq
	s.sinceCkpt += int64(records)
	due := s.shouldCheckpointLocked()
	if due {
		s.ckptDone = make(chan struct{})
		s.sinceCkpt = 0
	}
	s.mu.Unlock()
	if due {
		s.wg.Add(1)
		go s.checkpoint(s.live.Stage().Cut(), lastSeq)
	}
}

func (s *Store) shouldCheckpointLocked() bool {
	return s.ckptDone == nil && s.err == nil && !s.closed &&
		s.sc.CheckpointEvery > 0 && s.sinceCkpt >= s.sc.CheckpointEvery
}

// checkpoint writes one snapshot checkpoint on a background goroutine
// and, on success, kicks compaction. Group commit keeps running: only
// the cut happened on the commit path.
func (s *Store) checkpoint(cut *command.Cut, seq int64) {
	defer s.wg.Done()
	err := writeCheckpointFile(s.dir, seq, cut.WriteCanonical)
	s.mu.Lock()
	close(s.ckptDone)
	s.ckptDone = nil
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("journal: checkpoint at seq %d: %w", seq, err)
		}
		s.mu.Unlock()
		return
	}
	s.lastCkpt = seq
	s.ckpts = append(s.ckpts, seq)
	s.mu.Unlock()
	s.compactOnce()
}

// The version-4 checkpoint header; see "Layout" above. ckptVersion is the
// checkpoint's own format version: 2 and 3 were JSON.
const (
	ckptTag     = 0xC4
	ckptVersion = 4
	ckptHeader  = 1 + 1 + 8
)

// writeCheckpointFile lands dir/<seq>.ckpt (writeFileAtomic). snapshot
// writes the snapshot's canonical bytes — streamed from a command.Cut, or
// the very bytes a leader sent — and the checksum is kept as they pass,
// so the checkpoint is never held whole.
func writeCheckpointFile(dir string, seq int64, snapshot func(io.Writer) error) error {
	return writeFileAtomic(dir, ckptName(seq), func(f io.Writer) error {
		crc := crc32.New(castagnoli())
		w := io.MultiWriter(f, crc)
		if _, err := w.Write(binary.LittleEndian.AppendUint64([]byte{ckptTag, ckptVersion}, uint64(seq))); err != nil {
			return err
		}
		if err := snapshot(w); err != nil {
			return err
		}
		_, err := f.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		return err
	})
}

// writeFileAtomic lands dir/name whole: fill writes it into a temporary
// sibling, which is fsynced, renamed into place, and the directory
// fsynced. A crash leaves the old file or the new one, never a torn one;
// on error the temporary file is removed and dir/name is as it was.
func writeFileAtomic(dir, name string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+"-*"+tmpSuffix)
	if err != nil {
		return err
	}
	err = fill(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// compactOnce deletes sealed segments wholly covered by the newest
// durable checkpoint (beyond RetainSegments spares) and checkpoint
// files older than the newest two. File removal happens outside mu so
// appends never wait on the filesystem.
func (s *Store) compactOnce() {
	s.mu.Lock()
	if s.sc.RetainSegments < 0 || s.closed {
		s.mu.Unlock()
		return
	}
	covered := 0
	for i := 0; i < len(s.segs)-1; i++ {
		if s.segs[i].maxSeq() <= s.lastCkpt {
			covered++
		} else {
			break
		}
	}
	var doomedSegs []int64
	if drop := covered - s.sc.RetainSegments; drop > 0 {
		for _, m := range s.segs[:drop] {
			doomedSegs = append(doomedSegs, m.index)
		}
		s.segs = append([]segMeta(nil), s.segs[drop:]...)
	}
	var doomedCkpts []int64
	if n := len(s.ckpts); n > 2 {
		doomedCkpts = append(doomedCkpts, s.ckpts[:n-2]...)
		s.ckpts = append([]int64(nil), s.ckpts[n-2:]...)
	}
	s.mu.Unlock()
	removed := false
	for _, idx := range doomedSegs {
		if os.Remove(filepath.Join(s.dir, segName(idx))) == nil {
			removed = true
		}
	}
	for _, seq := range doomedCkpts {
		os.Remove(filepath.Join(s.dir, ckptName(seq)))
	}
	if removed {
		syncDir(s.dir)
	}
}

// Close waits for in-flight checkpoints, then seals the active
// segment. The journal Writer's Close has already synced through the
// store's Sync by the time Market.Close calls this.
func (s *Store) Close() error {
	// A clean shutdown leaves a checkpoint at the final seq (when the
	// cadence is enabled), so the next open replays no tail at all —
	// without it, a burst that outran the background cadence could
	// leave many multiples of CheckpointEvery unsnapshotted. Manual-
	// checkpoint mode (CheckpointEvery < 0) is left alone.
	if s.sc.CheckpointEvery > 0 {
		_ = s.Checkpoint() // a sticky store error resurfaces below
	}
	return s.shut()
}

// shut is Close without the final checkpoint: it seals the active
// segment once any checkpoint being written has landed.
func (s *Store) shut() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.err
	active := s.active
	s.active = nil
	s.mu.Unlock()
	s.wg.Wait()
	if active != nil {
		if serr := active.Sync(); err == nil && serr != nil {
			err = serr
		}
		if cerr := active.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// errStopScan aborts a TailRecords scan once the requested upper bound
// has been delivered.
var errStopScan = errors.New("journal: stop scan")

// TailRecords streams the records with afterSeq < seq <= uptoSeq from
// the store's segments, in order — the replication feed's catch-up
// read, which forwards each payload as it sits on disk. The store lock
// is held only to read the written seq, which bounds uptoSeq, and to
// open the segments the scan needs; the scan holds no lock, so appends
// keep flowing. An open segment outlives compaction's unlink, and a
// record an append has half written lies past the written seq.
func (s *Store) TailRecords(afterSeq, uptoSeq int64, fn func(Record) error) error {
	var files []*os.File
	var bases []int64
	var err error
	s.mu.Lock()
	if n := len(s.segs); n > 0 {
		uptoSeq = min(uptoSeq, s.segs[n-1].maxSeq()) // the written seq
	}
	for _, seg := range s.segs {
		if seg.base > uptoSeq || afterSeq >= uptoSeq || err != nil {
			break
		}
		if seg.maxSeq() > afterSeq {
			if len(files) == 0 && seg.base > afterSeq+1 {
				err = fmt.Errorf("%w: the records after seq %d are compacted away", ErrSegmentMissing, afterSeq)
				break
			}
			f, oerr := os.Open(filepath.Join(s.dir, segName(seg.index)))
			if err = oerr; err == nil {
				defer f.Close()
				files, bases = append(files, f), append(bases, seg.base)
			}
		}
	}
	s.mu.Unlock()
	for i, f := range files {
		if err != nil {
			break
		}
		_, _, err = scanSegmentFile(f, bases[i], func(rec Record) error {
			if rec.Seq <= afterSeq {
				return nil
			}
			if err := fn(rec); err != nil {
				return err
			}
			if rec.Seq == uptoSeq {
				return errStopScan
			}
			return nil
		})
	}
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// CatchupSnapshot returns the newest durable checkpoint as canonical
// snapshot bytes with the seq they capture, for replication catch-up: the
// checksum-verified file body as it sits on disk — no decode, no
// re-encode, no commit-path stall. A store younger than its first
// checkpoint returns nil bytes; the caller snapshots the live market
// instead.
func (s *Store) CatchupSnapshot() ([]byte, int64, error) {
	s.mu.Lock()
	seq := s.lastCkpt
	s.mu.Unlock()
	if seq == 0 {
		return nil, 0, nil
	}
	body, err := readCheckpointBody(s.dir, seq)
	return body, seq, err
}

// readCheckpointFile loads, verifies and decodes dir/<seq>.ckpt.
func readCheckpointFile(dir string, seq int64) (market.Snapshot, error) {
	body, err := readCheckpointBody(dir, seq)
	if err != nil {
		return market.Snapshot{}, err
	}
	snap, err := command.DecodeSnapshot(body)
	if err != nil {
		return market.Snapshot{}, &CorruptError{File: ckptName(seq), Seq: seq, Err: ErrStoreCorrupt, Detail: fmt.Sprintf("checkpoint does not decode: %v", err)}
	}
	return snap, nil
}

// readCheckpointBody loads and verifies dir/<seq>.ckpt and returns the
// snapshot's canonical bytes it holds. The CRC32C is checked before
// anything else is believed, so any damaged bit is ErrChecksum; a JSON
// checkpoint, which an older build wrote, is refused with ErrVersion
// first, rather than misreported as a checksum failure.
func readCheckpointBody(dir string, seq int64) ([]byte, error) {
	name := ckptName(seq)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	corrupt := func(sentinel error, format string, args ...any) error {
		return &CorruptError{File: name, Seq: seq, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
	}
	end := len(data) - 4
	switch {
	case len(data) > 0 && data[0] == '{':
		return nil, errNeedsMigrate("checkpoint "+name+" is JSON", dir)
	case end < ckptHeader:
		return nil, corrupt(ErrChecksum, "%d bytes cannot hold a checkpoint", len(data))
	}
	if got, want := crc32.Checksum(data[:end], castagnoli()), binary.LittleEndian.Uint32(data[end:]); got != want && !skipChecksum.Load() {
		return nil, corrupt(ErrChecksum, "stored %08x, computed %08x", want, got)
	}
	switch {
	case data[0] != ckptTag:
		return nil, corrupt(ErrStoreCorrupt, "not a checkpoint: opens with %#02x", data[0])
	case data[1] != ckptVersion:
		return nil, fmt.Errorf("%w: checkpoint %s has version %d", ErrVersion, name, data[1])
	case binary.LittleEndian.Uint64(data[2:]) != uint64(seq):
		return nil, corrupt(ErrStoreCorrupt, "checkpoint records seq %d", binary.LittleEndian.Uint64(data[2:]))
	}
	return data[ckptHeader:end], nil
}

// scanSegmentFile is scanSegment on a segment already open.
func scanSegmentFile(f *os.File, base int64, fn func(Record) error) (durable int64, torn bool, err error) {
	name := filepath.Base(f.Name())
	br := bufio.NewReaderSize(f, 64<<10)
	head, err := br.ReadBytes('\n')
	if err != nil {
		return 0, false, &CorruptError{File: name, Seq: base, Err: ErrStoreCorrupt, Detail: fmt.Sprintf("seghead: %v", err)}
	}
	durable, torn, err = ScanRecords(br, base, fn)
	var ce *CorruptError
	if errors.As(err, &ce) && ce.File == "" {
		ce.File, ce.Offset = name, ce.Offset+int64(len(head))
	}
	return durable + int64(len(head)), torn, err
}
