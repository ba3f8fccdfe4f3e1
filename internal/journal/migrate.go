// Migration, the one reader of JSON-line records (formats 0 and 2), JSON
// checkpoints (versions 2 and 3) and flat journals; every other reader
// refuses them with ErrVersion naming `marketctl journal-migrate`. JSON
// lines and version-2 checkpoints have no checksum — a flipped digit reads
// as a different bid, and nothing can know — so this is the one place such
// bytes are still read, and only once; what it writes is checksummed.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// ckptTrailer opens the last line of a version-3 checkpoint: the CRC32C of
// every byte before it, as eight hex digits.
const (
	ckptTrailer    = "#crc32c "
	ckptTrailerLen = len(ckptTrailer) + 8 + 1
)

// errNeedsMigrate refuses bytes in a format this build does not read,
// named by what, in the file or store at path.
func errNeedsMigrate(what, path string) error {
	return fmt.Errorf("%w: %s (this build reads format %d; run `marketctl journal-migrate %s` once to rewrite what an older build wrote)", ErrVersion, what, FormatVersion, path)
}

// Migrate rewrites what an older build left at path in the formats this
// build reads, and returns the store directory to serve and how many
// files it wrote. A regular file is a flat journal: it becomes segment 0
// of the store path+".d", unless that holds segments already, and is left
// untouched. A directory is a store, migrated in place: JSON checkpoints
// become version 4, then segments whose seghead is not version 3 become
// frames. Records keep their seq and trace, heads are restamped "v":3,
// and a torn final record is dropped (by recovery, if it is a frame).
// Each file lands whole and current ones are skipped, so a run cut short
// finishes when run again; a file that does not read stops the run,
// unwritten, with an error naming it.
func Migrate(path string) (dir string, files int, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	if !fi.IsDir() {
		dir = path + ".d"
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", 0, err
		}
		if l, err := listStoreDir(dir); err != nil || len(l.segIdx) > 0 {
			return dir, 0, err
		}
		files, err = migrateSegment(dir, 0, path, true)
		return dir, files, err
	}
	l, err := listStoreDir(path)
	if err != nil {
		return path, 0, err
	}
	for _, seq := range l.ckptSeqs {
		n, err := migrateCheckpoint(path, seq)
		if files += n; err != nil {
			return path, files, err
		}
	}
	for _, idx := range l.segIdx {
		n, err := migrateSegment(path, idx, filepath.Join(path, segName(idx)), false)
		if files += n; err != nil {
			return path, files, err
		}
	}
	return path, files, nil
}

// migrateSegment writes dir/<index>.seg as a version-3 seghead and the
// frames of src's records — src being that segment, or a flat log (no
// seghead, seq 1 first) — and returns how many files it wrote: none for a
// segment already current or whose seghead was torn (recovery rebuilds it).
func migrateSegment(dir string, index int64, src string, flat bool) (int, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	name, head, offset := filepath.Base(src), segHead{Base: 1}, 0
	if !flat {
		line, err := r.ReadBytes('\n')
		switch {
		case err == io.EOF:
			return 0, nil
		case err != nil:
			return 0, err
		case json.Unmarshal(line, &head) != nil || head.Op != opSegHead:
			return 0, fmt.Errorf("%w: %s has no seghead", ErrStoreCorrupt, name)
		case head.V == FormatVersion:
			return 0, nil
		case head.V != 0 && head.V != 2:
			return 0, fmt.Errorf("%w: segment %s has version %d (this build migrates 0 and 2)", ErrVersion, name, head.V)
		}
		offset = len(line)
	}
	err = writeFileAtomic(dir, segName(index), func(w io.Writer) error {
		if _, err := w.Write(segHeadLine(index, head.Base)); err != nil {
			return err
		}
		return upgradeRecords(w, r, name, int64(offset), head.Base)
	})
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// upgradeRecords writes the records r holds from seq on to w as frames.
// JSON lines, which come before any frame since no writer put a line
// after one, become the frames a v3 writer would have written (a torn
// final line is dropped); the frames after them are copied as they are,
// once they read. name and offset (of r's first byte in its file) locate
// damage.
func upgradeRecords(w io.Writer, r *bufio.Reader, name string, offset, seq int64) error {
	var frame, bin []byte
	for next, err := r.Peek(1); err == nil && next[0] == '{'; next, err = r.Peek(1) {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var e Event
		kind, err := kindCommand, json.Unmarshal(line, &e)
		switch {
		case err != nil:
		case e.Seq != seq:
			return &CorruptError{File: name, Seq: seq, Offset: offset, Err: ErrSeqGap, Detail: fmt.Sprintf("got %d", e.Seq)}
		case e.Op == OpGenesis || e.Op == OpSnapshot:
			e.V, kind = FormatVersion, kindHead
			bin, err = json.Marshal(e)
		default:
			var cmd command.Command
			if cmd, err = CommandFromEvent(e); err == nil {
				bin, err = command.AppendBinary(bin[:0], cmd)
			}
		}
		if err != nil {
			return &CorruptError{File: name, Seq: seq, Offset: offset, Err: ErrBadEvent, Detail: err.Error()}
		}
		frame = append(beginFrame(frame[:0], seq, []byte(e.Trace), kind), bin...)
		endFrame(frame, 0)
		if _, err := w.Write(frame); err != nil {
			return err
		}
		seq, offset = seq+1, offset+int64(len(line))
	}
	_, _, err := ScanRecords(io.TeeReader(r, w), seq, func(Record) error { return nil })
	var ce *CorruptError
	if errors.As(err, &ce) && ce.File == "" {
		ce.File, ce.Offset = name, ce.Offset+offset
	}
	return err
}

// migrateCheckpoint rewrites dir/<seq>.ckpt as version 4 unless it is
// current, and returns how many files it wrote. A version-3 trailer must
// verify before its line is read.
func migrateCheckpoint(dir string, seq int64) (int, error) {
	name := ckptName(seq)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil || (len(data) > 0 && data[0] == ckptTag) {
		return 0, err // current, or damage the readers name
	}
	corrupt := func(sentinel error, format string, args ...any) error {
		return &CorruptError{File: name, Seq: seq, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
	}
	body := data
	trailer := len(data) - ckptTrailerLen
	sealed := trailer > 0 && string(data[trailer:trailer+len(ckptTrailer)]) == ckptTrailer && data[len(data)-1] == '\n'
	if sealed {
		body = data[:trailer]
		want, perr := strconv.ParseUint(string(data[trailer+len(ckptTrailer):len(data)-1]), 16, 32)
		if got := crc32.Checksum(body, castagnoli()); (perr != nil || uint32(want) != got) && !skipChecksum.Load() {
			return 0, corrupt(ErrChecksum, "trailer %q, computed %08x", data[trailer:len(data)-1], got)
		}
	} else if i := bytes.IndexByte(data, '\n'); i >= 0 {
		body = data[:i+1] // a version-2 checkpoint, or a trailer too damaged to recognize
	}
	var ck struct {
		V        int             `json:"v"`
		Seq      int64           `json:"seq"`
		Snapshot market.Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(body, &ck); err != nil {
		return 0, corrupt(ErrStoreCorrupt, "checkpoint does not decode: %v", err)
	}
	switch {
	case ck.V != 2 && ck.V != 3:
		return 0, fmt.Errorf("%w: checkpoint %s has version %d (this build migrates 2 and 3)", ErrVersion, name, ck.V)
	case !sealed && ck.V == 3:
		return 0, corrupt(ErrChecksum, "checksum trailer missing or damaged")
	case ck.Seq != seq:
		return 0, corrupt(ErrStoreCorrupt, "checkpoint records seq %d", ck.Seq)
	}
	canonical, err := ck.Snapshot.Canonical()
	if err == nil {
		err = writeCheckpointFile(dir, seq, func(w io.Writer) error {
			_, err := w.Write(canonical)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}
