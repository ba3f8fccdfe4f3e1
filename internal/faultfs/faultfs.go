// Package faultfs provides deterministic fault injection for io.Writer
// streams, simulating the ways a process or machine crash mangles an
// append-only log file: writes that silently never reach disk
// (Truncate), writes torn mid-record at a byte boundary (Tear), and
// writes that fail outright (Err).
//
// A Writer passes bytes through to its destination until a configured
// byte offset, then injects its fault and stays tripped: everything
// after the fault point behaves as if the process had died there. The
// fault point can be chosen exactly (a record boundary, an offset
// inside a record) or drawn from a seed, so crash tests are fully
// reproducible.
package faultfs

import (
	"errors"
	"io"

	"github.com/datamarket/shield/internal/rng"
)

// Kind selects how the fault manifests at the fault point.
type Kind int

const (
	// Truncate drops every byte from the fault point on while still
	// reporting success to the caller — the write lands in a volatile
	// cache that is lost before it reaches disk. This is what a crash
	// without fsync looks like to the process.
	Truncate Kind = iota
	// Tear writes the bytes before the fault point, drops the rest of
	// the faulting write, and returns ErrInjected: a record torn at an
	// arbitrary byte offset, as when power fails mid-write.
	Tear
	// Err fails the faulting write without writing any of it, and every
	// write after it: the device went away.
	Err
)

// String names the kind for test labels.
func (k Kind) String() string {
	switch k {
	case Truncate:
		return "truncate"
	case Tear:
		return "tear"
	case Err:
		return "err"
	default:
		return "unknown"
	}
}

// ErrInjected is returned by writes (and syncs) that hit the fault.
var ErrInjected = errors.New("faultfs: injected fault")

// Writer passes writes through to Dst until Offset bytes have been
// written, then injects Kind and stays tripped. It is not safe for
// concurrent use; the journal serializes appends already.
type Writer struct {
	dst       io.Writer
	kind      Kind
	remaining int64
	tripped   bool
}

// NewWriter wraps dst with a fault of the given kind at the given byte
// offset (counted across all writes). An offset at a record boundary
// kills the stream exactly between records; an offset inside a record
// tears it.
func NewWriter(dst io.Writer, kind Kind, offset int64) *Writer {
	if offset < 0 {
		offset = 0
	}
	return &Writer{dst: dst, kind: kind, remaining: offset}
}

// NewSeeded derives the fault kind and offset (in [0, maxOffset]) from
// seed, so a failing crash test reproduces from its seed alone.
func NewSeeded(dst io.Writer, seed uint64, maxOffset int64) *Writer {
	r := rng.New(seed)
	kind := Kind(r.Intn(3))
	var off int64
	if maxOffset > 0 {
		off = int64(r.Intn(int(maxOffset + 1)))
	}
	return NewWriter(dst, kind, off)
}

// Write implements io.Writer with the configured fault.
func (w *Writer) Write(p []byte) (int, error) {
	if w.tripped {
		// The process is "dead": Truncate keeps absorbing bytes
		// silently, the erroring kinds keep failing.
		if w.kind == Truncate {
			return len(p), nil
		}
		return 0, ErrInjected
	}
	if int64(len(p)) <= w.remaining {
		n, err := w.dst.Write(p)
		w.remaining -= int64(n)
		return n, err
	}
	keep := int(w.remaining)
	w.tripped = true
	switch w.kind {
	case Truncate:
		if _, err := w.dst.Write(p[:keep]); err != nil {
			return 0, err
		}
		return len(p), nil
	case Tear:
		if _, err := w.dst.Write(p[:keep]); err != nil {
			return 0, err
		}
		return keep, ErrInjected
	default: // Err
		return 0, ErrInjected
	}
}

// Sync mimics (*os.File).Sync: it passes through to Dst when Dst can
// sync, and fails once the fault has tripped — a lost write surfaces at
// the latest when the journal fsyncs.
func (w *Writer) Sync() error {
	if w.tripped {
		return ErrInjected
	}
	if s, ok := w.dst.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Kind returns the configured fault kind.
func (w *Writer) Kind() Kind { return w.kind }
