package journal

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// batchedLog is a log of command frames with random payloads, sized to
// cross ScanRecords' batch boundaries both ways: a run of kilobyte
// records that fills batches by bytes, one record bigger than a batch's
// whole budget, and a run of one-byte records that fills batches by
// count. It returns the log, each record's payload and where each
// record's frame starts (and, last, where the log ends).
func batchedLog(t testing.TB) (log []byte, payloads [][]byte, starts []int) {
	t.Helper()
	r := rand.New(rand.NewPCG(45, 1))
	var sizes []int
	for range 150 {
		sizes = append(sizes, 1+r.IntN(2048))
	}
	sizes = append(sizes, scanBatchBytes+5000)
	for range 150 {
		sizes = append(sizes, 1+r.IntN(2048))
	}
	for range 2*scanBatchRecords + 100 {
		sizes = append(sizes, 1)
	}
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(r.Uint32())
		}
		starts = append(starts, len(log))
		log = append(beginFrame(log, int64(i+1), nil, kindCommand), p...)
		endFrame(log, starts[i])
		payloads = append(payloads, p)
	}
	return log, payloads, append(starts, len(log))
}

// batchIndex is the batch ScanRecords' reader puts each of a log's
// records in, given their body lengths: a batch closes at
// scanBatchRecords records, or before a body that would take it past
// scanBatchBytes, so a bigger record has one to itself.
func batchIndex(starts []int) []int {
	var idx []int
	batch, size, recs := 0, 0, 0
	for i := 0; i+1 < len(starts); i++ {
		n := starts[i+1] - starts[i] - frameHeader
		if recs == scanBatchRecords || recs > 0 && size+n > scanBatchBytes {
			batch, size, recs = batch+1, 0, 0
		}
		idx = append(idx, batch)
		size, recs = size+n, recs+1
	}
	return idx
}

// checkedFn returns an fn that checks each record's seq and payload
// against what was written — again after a pause, so a batch handed
// back to the reader while fn still reads it shows as changed bytes —
// and counts them in *seen.
func checkedFn(t *testing.T, payloads [][]byte, seen *int) func(Record) error {
	return func(rec Record) error {
		i := *seen
		if rec.Seq != int64(i+1) || rec.Head || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d: got seq %d, head %v, %d payload bytes; want seq %d, %d bytes as written", i, rec.Seq, rec.Head, len(rec.Payload), i+1, len(payloads[i]))
		}
		time.Sleep(time.Microsecond)
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d: payload changed before fn returned", rec.Seq)
		}
		*seen = i + 1
		return nil
	}
}

// TestScanRecordsAcrossBatches: records reach fn in order and intact
// across every kind of batch boundary, and a corrupt frame in the third
// batch is the serial reader's error — sentinel, seq and offset — after
// every record before it and none after.
func TestScanRecordsAcrossBatches(t *testing.T) {
	log, payloads, starts := batchedLog(t)
	idx := batchIndex(starts)
	if batches := idx[len(idx)-1] + 1; batches < 4 {
		t.Fatalf("the log spans %d batches, want at least 4", batches)
	}

	seen := 0
	durable, torn, err := ScanRecords(bytes.NewReader(log), 1, checkedFn(t, payloads, &seen))
	if err != nil || torn || durable != int64(len(log)) || seen != len(payloads) {
		t.Fatalf("clean scan: %d of %d records, durable %d of %d, torn %v, err %v", seen, len(payloads), durable, len(log), torn, err)
	}

	var third []int
	for i, batch := range idx {
		if batch == 2 {
			third = append(third, i)
		}
	}
	k := third[len(third)/2]
	bad := bytes.Clone(log)
	bad[starts[k+1]-1] ^= 0x04
	seen = 0
	_, _, err = ScanRecords(bytes.NewReader(bad), 1, checkedFn(t, payloads, &seen))
	wantCorrupt(t, "flipped bit in the third batch", err, ErrChecksum, int64(k+1), int64(starts[k]))
	if seen != k {
		t.Fatalf("fn saw %d records before the corrupt one, want %d", seen, k)
	}
}

// watchedReader counts the reads made of r after done is set.
type watchedReader struct {
	r    io.Reader
	done atomic.Bool
	late atomic.Int32
}

func (w *watchedReader) Read(p []byte) (int, error) {
	if w.done.Load() {
		w.late.Add(1)
	}
	return w.r.Read(p)
}

// settledGoroutines reads runtime.NumGoroutine once it has held still
// for 20 ms (giving up after 2 s), so a goroutine an earlier test
// released, still on its way out, is not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for still := time.Now(); time.Since(still) < 20*time.Millisecond && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return n
}

// TestScanRecordsLeavesNoGoroutines: on every way a scan ends — a clean
// end, an fn error, a corrupt frame, a torn tail, an I/O error and a
// panic in fn — ScanRecords' reader has stopped reading when it returns,
// and has exited a moment after.
func TestScanRecordsLeavesNoGoroutines(t *testing.T) {
	log, _, starts := batchedLog(t)
	errStop, errDisk := errors.New("stop"), errors.New("disk gone")
	corrupt := bytes.Clone(log)
	corrupt[starts[len(starts)/2]+frameHeader] ^= 0x01
	for _, c := range []struct {
		name string
		r    io.Reader
		fn   func(Record) error
		want func(durable int64, torn bool, err error, panicked any) bool
	}{
		{"clean end", bytes.NewReader(log), nil, func(d int64, torn bool, err error, _ any) bool {
			return err == nil && !torn && d == int64(len(log))
		}},
		{"fn error", bytes.NewReader(log), func(rec Record) error {
			if rec.Seq == 5 {
				return errStop
			}
			return nil
		}, func(_ int64, _ bool, err error, _ any) bool { return err == errStop }},
		{"corrupt frame", bytes.NewReader(corrupt), nil, func(_ int64, _ bool, err error, _ any) bool {
			return errors.Is(err, ErrChecksum)
		}},
		{"torn tail", bytes.NewReader(log[:len(log)-1]), nil, func(d int64, torn bool, err error, _ any) bool {
			return err == nil && torn && d == int64(starts[len(starts)-2])
		}},
		{"I/O error", io.MultiReader(bytes.NewReader(log[:len(log)/2]), iotest.ErrReader(errDisk)), nil, func(_ int64, _ bool, err error, _ any) bool {
			return errors.Is(err, errDisk)
		}},
		{"panic in fn", bytes.NewReader(log), func(rec Record) error {
			if rec.Seq == 5 {
				panic("fn panicked")
			}
			return nil
		}, func(_ int64, _ bool, _ error, p any) bool { return p == "fn panicked" }},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			if c.fn == nil {
				c.fn = func(Record) error { return nil }
			}
			before := settledGoroutines()
			wr := &watchedReader{r: c.r}
			var (
				durable  int64
				torn     bool
				err      error
				panicked any
			)
			func() {
				defer func() { panicked = recover() }()
				durable, torn, err = ScanRecords(wr, 1, c.fn)
			}()
			wr.done.Store(true)
			if !c.want(durable, torn, err, panicked) {
				t.Fatalf("ScanRecords = %d, %v, %v (panic %v)", durable, torn, err, panicked)
			}
			// The reader is counted until it has left its deferred
			// close, a moment after the ScanRecords it released returns.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before ScanRecords, %d after", before, after)
			}
			if n := wr.late.Load(); n != 0 {
				t.Fatalf("the input was read %d times after ScanRecords returned", n)
			}
		})
	}
}
