package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call
// into a layer. Spans are recorded from outside the program — spans
// inside it are a later change — kept in memory, and written out as
// JSON when the run ends. Start and End are nanoseconds since the
// recorder was created. Op ties together the spans of one request: the
// five rung spans the ladder records for one op share it.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder collects spans. Workers time their calls into plain
// arrays; the spans are built from those afterwards by one goroutine,
// so the recorder needs no lock.
type spanRecorder struct {
	t0    time.Time
	spans []Span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *spanRecorder) add(parent, op int, name string, start time.Time, d time.Duration) int {
	id := len(r.spans) + 1
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// endNow closes a span that was added open-ended (a root recorded
// before its children).
func (r *spanRecorder) endNow(id int) { r.spans[id-1].End = time.Since(r.t0).Nanoseconds() }

func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = json.NewEncoder(w).Encode(struct {
		Spans []Span `json:"spans"`
	}{r.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
