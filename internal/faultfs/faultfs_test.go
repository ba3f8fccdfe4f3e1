package faultfs

import (
	"bytes"
	"errors"
	"testing"
)

func TestTruncateDropsSilently(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Truncate, 5)
	n, err := w.Write([]byte("hello world"))
	if err != nil || n != 11 {
		t.Fatalf("faulting write reported (%d, %v), want silent success", n, err)
	}
	if got := buf.String(); got != "hello" {
		t.Fatalf("durable bytes %q, want %q", got, "hello")
	}
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync after the fault = %v, want ErrInjected: the writer did not trip", err)
	}
	// Later writes keep vanishing.
	if n, err := w.Write([]byte("more")); err != nil || n != 4 {
		t.Fatalf("post-fault write reported (%d, %v)", n, err)
	}
	if buf.Len() != 5 {
		t.Fatalf("bytes leaked past the fault: %q", buf.String())
	}
	// But the loss surfaces on sync.
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync after silent truncation = %v, want ErrInjected", err)
	}
}

func TestTearWritesPartialThenFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Tear, 3)
	n, err := w.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) || n != 3 {
		t.Fatalf("torn write reported (%d, %v), want (3, ErrInjected)", n, err)
	}
	if got := buf.String(); got != "abc" {
		t.Fatalf("durable bytes %q, want %q", got, "abc")
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-fault write = %v, want ErrInjected", err)
	}
}

func TestErrFailsWithoutPartial(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Err, 4)
	if _, err := w.Write([]byte("ab")); err != nil {
		t.Fatalf("pre-fault write failed: %v", err)
	}
	n, err := w.Write([]byte("cdef"))
	if !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("faulting write reported (%d, %v), want (0, ErrInjected)", n, err)
	}
	if got := buf.String(); got != "ab" {
		t.Fatalf("durable bytes %q, want %q", got, "ab")
	}
}

func TestExactBoundaryIsNotAFault(t *testing.T) {
	// A write that ends exactly at the fault offset succeeds in full;
	// the fault hits the first byte after it.
	var buf bytes.Buffer
	w := NewWriter(&buf, Tear, 4)
	if n, err := w.Write([]byte("abcd")); err != nil || n != 4 {
		t.Fatalf("boundary write reported (%d, %v)", n, err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync = %v: tripped before any byte past the offset", err)
	}
	if n, err := w.Write([]byte("e")); !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("first post-boundary write reported (%d, %v)", n, err)
	}
}

func TestSeededIsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		var b1, b2 bytes.Buffer
		w1 := NewSeeded(&b1, seed, 100)
		w2 := NewSeeded(&b2, seed, 100)
		if w1.Kind() != w2.Kind() || w1.remaining != w2.remaining {
			t.Fatalf("seed %d: (%v, %d) vs (%v, %d)",
				seed, w1.Kind(), w1.remaining, w2.Kind(), w2.remaining)
		}
		if w1.remaining < 0 || w1.remaining > 100 {
			t.Fatalf("seed %d: offset %d out of range", seed, w1.remaining)
		}
	}
}
