// The bit-rot mode: what the crash matrices cannot test. They cut files;
// this flips bits in them. A seeded store is built (rotated segments,
// several checkpoints), then one bit at a seeded offset of a seeded file
// is flipped in a copy, and every way a store is read — read-only
// recovery, a leader's open, a follower's cold restart and the offline
// verifier — must either refuse the directory with the error that names
// the damage, or (where that reader never touches the damaged bytes, or
// the flip is in one of the few bytes no checksum covers and happens to
// change nothing) rebuild the builder's market byte for byte. Never
// anything else: never a different market.
package torture

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// BitrotConfig configures one bit-rot run.
type BitrotConfig struct {
	// Seed fixes the store's history and every flip.
	Seed uint64
	// Ops is the number of operations behind the store (default 400).
	Ops int
	// Dir is the working directory.
	Dir string
	// Logf, when non-nil, receives one line per flip.
	Logf func(format string, args ...any)

	// canarySkipChecksum disables checksum verification in the journal's
	// readers (journal.TestSkipChecksum); the mode must then fail by
	// name. In-package test hook.
	canarySkipChecksum bool
}

const bitrotFlips = 12 // flips per run; a constant, so a repro line needs only seed and ops

// rotRegion classifies one byte of a store file by who vouches for it.
type rotRegion int

const (
	rotFrameBody   rotRegion = iota // checksum or checksummed bytes of a frame: ErrChecksum
	rotFrameHeader                  // tag or length of a frame: ErrChecksum or ErrBadEvent
	rotCheckpoint                   // anywhere in a checkpoint file, header and checksum included: ErrChecksum
	rotSeghead                      // a seghead line: a named structural error, or no effect
)

// rotTarget is one chosen flip and what it must provoke.
type rotTarget struct {
	file   string
	offset int64
	bit    byte
	region rotRegion
	seq    int64 // the record (or checkpoint) the damaged byte belongs to
	start  int64 // byte offset of that record in the file
	// recoveryReads reports whether recovery reads the file at all: it
	// skips sealed segments a checkpoint covers and every checkpoint but
	// the newest. The verifier reads everything.
	recoveryReads bool
}

// RunBitrot builds one store and checks bitrotFlips seeded flips against
// it. It returns a report (Checkpoints counts the flips checked) or a
// *Failure naming the first reader that did not hold.
func RunBitrot(cfg BitrotConfig) (*Report, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 400
	}
	if cfg.Dir == "" {
		return nil, errors.New("torture: bit-rot mode needs a working directory")
	}
	b := &bitrot{cfg: cfg, dir: filepath.Join(cfg.Dir, "built"), rng: rng.New(cfg.Seed).Fork("bitrot")}
	rep, err := b.build()
	if err != nil {
		return nil, err
	}
	if cfg.canarySkipChecksum {
		journal.TestSkipChecksum(true)
		defer journal.TestSkipChecksum(false)
	}
	for i := 0; i < bitrotFlips; i++ {
		tg, err := b.pick()
		if err != nil {
			return nil, b.fail(i, "choosing a flip: %v", err)
		}
		if f := b.check(i, tg); f != nil {
			return nil, f
		}
		rep.Checkpoints++
	}
	return rep, nil
}

type bitrot struct {
	cfg BitrotConfig
	dir string
	rng *rng.RNG

	sc      journal.StoreConfig
	lastSeq int64
	truth   []byte // the builder's canonical snapshot at lastSeq
	inv     *journal.Inventory
}

func (b *bitrot) fail(flip int, format string, args ...any) *Failure {
	return &Failure{
		Seed: b.cfg.Seed, Ops: b.cfg.Ops, Mode: "bitrot",
		OpIndex: flip, OpDesc: "bit flip",
		Reason: fmt.Sprintf(format, args...),
	}
}

// build drives the hot storm's op mix from one goroutine into a store
// with small segments, cutting a checkpoint after each of the first
// three quarters — the last quarter is the tail recovery replays.
func (b *bitrot) build() (*Report, error) {
	b.sc = journal.StoreConfig{SegmentRecords: 16, CheckpointEvery: -1, RetainSegments: -1}
	jm, _, err := journal.OpenStore(market.Config{Engine: DefaultEngine(), Seed: b.cfg.Seed}, b.dir, b.sc)
	if err != nil {
		return nil, fmt.Errorf("torture: bit-rot builder: %w", err)
	}
	h := &hotStorm{jm: jm}
	w := &hotWorker{rng: b.rng.Fork("ops")}
	err = h.seed()
	for quarter := 0; quarter < 4 && err == nil; quarter++ {
		if err = h.drive(w, b.cfg.Ops/4); err == nil && quarter < 3 {
			err = jm.Store().Checkpoint()
		}
	}
	if err != nil {
		jm.Close()
		return nil, fmt.Errorf("torture: bit-rot builder: %w", err)
	}
	b.lastSeq = jm.LastSeq()
	rep := &Report{Seed: b.cfg.Seed, Ops: b.cfg.Ops, Rejections: w.reject,
		Allocations: jm.TxCount(), Revenue: jm.Revenue()}
	b.truth = jm.Canonical()
	if err := jm.Close(); err != nil {
		return nil, fmt.Errorf("torture: bit-rot builder: %w", err)
	}
	if b.inv, err = journal.InspectDir(b.dir); err != nil {
		return nil, fmt.Errorf("torture: bit-rot builder: %w", err)
	}
	if len(b.inv.Segments) < 3 || len(b.inv.Checkpoints) < 2 || b.inv.LastSeq != b.lastSeq || b.inv.LastCheckpoint >= b.lastSeq {
		return nil, fmt.Errorf("torture: bit-rot builder: store too small to mean anything: %+v", b.inv)
	}
	// The undamaged store must pass every reader, or nothing below means
	// anything.
	if f := b.readers(-1, b.dir, nil); f != nil {
		return nil, f
	}
	rep.StoreSegments, rep.StoreCheckpoints = len(b.inv.Segments), len(b.inv.Checkpoints)
	return rep, nil
}

// pick chooses the next flip: a file, a byte in it, a bit in that byte —
// and works out from the file's structure what the flip must provoke.
func (b *bitrot) pick() (rotTarget, error) {
	files := len(b.inv.Segments) + len(b.inv.Checkpoints)
	i := b.rng.Intn(files)
	tg := rotTarget{bit: 1 << b.rng.Intn(8)}
	if i >= len(b.inv.Segments) {
		ck := b.inv.Checkpoints[i-len(b.inv.Segments)]
		tg.file, tg.region, tg.seq = ck.Name, rotCheckpoint, ck.Seq
		tg.offset = int64(b.rng.Intn(int(ck.Bytes)))
		tg.recoveryReads = ck.Seq == b.inv.LastCheckpoint
		return tg, nil
	}
	seg := b.inv.Segments[i]
	tg.file, tg.recoveryReads = seg.Name, !seg.Covered
	data, err := os.ReadFile(filepath.Join(b.dir, seg.Name))
	if err != nil {
		return tg, err
	}
	headLen := int64(bytes.IndexByte(data, '\n') + 1)
	tg.offset = int64(b.rng.Intn(len(data)))
	if tg.offset < headLen {
		// Recovery chains every seghead, covered segments' included.
		tg.region, tg.seq, tg.recoveryReads = rotSeghead, seg.Base, true
		return tg, nil
	}
	// Find the record the byte falls in.
	at := headLen
	errFound := errors.New("found")
	_, _, err = journal.ScanRecords(bytes.NewReader(data[headLen:]), seg.Base, func(rec journal.Record) error {
		if tg.offset < at+int64(rec.Size) {
			tg.seq, tg.start = rec.Seq, at
			return errFound
		}
		at += int64(rec.Size)
		return nil
	})
	if err != errFound {
		return tg, fmt.Errorf("byte %d of %s is in no record (%v)", tg.offset, seg.Name, err)
	}
	tg.region = rotFrameBody
	if tg.offset < tg.start+5 {
		tg.region = rotFrameHeader
	}
	return tg, nil
}

// check flips tg's bit in a scratch copy of the store and runs every
// reader over it.
func (b *bitrot) check(flip int, tg rotTarget) *Failure {
	scratch, err := os.MkdirTemp(b.cfg.Dir, "rot-*")
	if err != nil {
		return b.fail(flip, "scratch: %v", err)
	}
	defer os.RemoveAll(scratch)
	rotted := filepath.Join(scratch, "rotted")
	if err := copyDir(b.dir, rotted); err != nil {
		return b.fail(flip, "copying the store: %v", err)
	}
	path := filepath.Join(rotted, tg.file)
	data, err := os.ReadFile(path)
	if err == nil {
		data[tg.offset] ^= tg.bit
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return b.fail(flip, "flipping the bit: %v", err)
	}
	if b.cfg.Logf != nil {
		b.cfg.Logf("flip %d: %s byte %d bit %#02x (region %d, seq %d)", flip, tg.file, tg.offset, tg.bit, tg.region, tg.seq)
	}
	return b.readers(flip, rotted, &tg)
}

// readers runs the four readers over dir (the writable ones each on
// their own copy) and holds each to tg; a nil tg is the undamaged store.
func (b *bitrot) readers(flip int, dir string, tg *rotTarget) *Failure {
	ro := journal.StoreConfig{SegmentRecords: b.sc.SegmentRecords, CheckpointEvery: -1, RetainSegments: -1}
	for _, rd := range []struct {
		name     string
		readsAll bool
		read     func(dir string) (*market.Market, int64, error)
	}{
		{"journal-verify", true, func(dir string) (*market.Market, int64, error) {
			if err := journal.VerifyDir(dir); err != nil {
				return nil, 0, err
			}
			m, seq, _, err := journal.RecoverDir(dir)
			return m, seq, err
		}},
		{"RecoverDir", false, func(dir string) (*market.Market, int64, error) {
			m, seq, _, err := journal.RecoverDir(dir)
			return m, seq, err
		}},
		{"OpenStore", false, func(dir string) (*market.Market, int64, error) {
			jm, _, err := journal.OpenStore(market.Config{}, dir, ro)
			if err != nil {
				return nil, 0, err
			}
			defer jm.Close()
			return jm.Market, jm.LastSeq(), nil
		}},
		{"OpenFollower", false, func(dir string) (*market.Market, int64, error) {
			jm, err := journal.OpenFollower(dir, ro)
			if jm == nil {
				return nil, 0, err
			}
			defer jm.Close()
			return jm.Market, jm.LastSeq(), nil
		}},
	} {
		own := filepath.Join(filepath.Dir(dir), "copy-"+rd.name)
		if err := copyDir(dir, own); err != nil {
			return b.fail(flip, "%s: copying the store: %v", rd.name, err)
		}
		m, seq, err := rd.read(own)
		os.RemoveAll(own)
		reads := tg != nil && (rd.readsAll || tg.recoveryReads)
		var reason string
		switch {
		case err == nil && m == nil:
			reason = "returned neither a market nor an error"
		case err != nil && tg == nil:
			reason = err.Error()
		case err != nil && !reads:
			reason = fmt.Sprintf("failed on bytes it should not even read: %v", err)
		case err != nil:
			reason = tg.wrongError(err)
		default:
			// Whatever a reader returns must be the builder's market, and
			// it may return one only past damage it never read or that no
			// checksum covers.
			switch {
			case seq != b.lastSeq || !bytes.Equal(m.Canonical(), b.truth):
				reason = fmt.Sprintf("returned a different market (seq %d, builder at %d)", seq, b.lastSeq)
			case reads && tg.region != rotSeghead:
				reason = "bit rot not detected: the reader returned the market as if nothing were wrong"
			}
		}
		if reason != "" {
			if tg == nil {
				return b.fail(flip, "%s on the undamaged store: %s", rd.name, reason)
			}
			return b.fail(flip, "%s, one bit (%#02x) flipped at byte %d of %s (record %d): %s",
				rd.name, tg.bit, tg.offset, tg.file, tg.seq, reason)
		}
	}
	return nil
}

// wrongError returns "" when err is what a flip in tg's region must
// provoke — the right sentinel, naming the file, the seq and the offset
// — and what is wrong with it otherwise.
func (tg *rotTarget) wrongError(err error) string {
	is := func(sentinels ...error) bool {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return true
			}
		}
		return false
	}
	var ok bool
	switch tg.region {
	case rotFrameBody, rotCheckpoint:
		ok = is(journal.ErrChecksum)
	case rotFrameHeader:
		ok = is(journal.ErrChecksum, journal.ErrBadEvent)
	case rotSeghead:
		// No checksum covers a seghead: damage shows up as whichever
		// structural check it breaks, and needs only to be one of them.
		if is(journal.ErrStoreCorrupt, journal.ErrVersion, journal.ErrSegmentMissing, journal.ErrSeqGap, journal.ErrBadEvent) {
			return ""
		}
		return fmt.Sprintf("seghead damage surfaced as an unnamed error: %v", err)
	}
	if !ok {
		return fmt.Sprintf("bit rot not detected as a checksum failure: %v", err)
	}
	var ce *journal.CorruptError
	if !errors.As(err, &ce) || ce.File != tg.file || ce.Seq != tg.seq || ce.Offset != tg.start {
		return fmt.Sprintf("error does not locate the damage (want %s, seq %d, byte %d): %v", tg.file, tg.seq, tg.start, err)
	}
	return ""
}
