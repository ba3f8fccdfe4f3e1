package obs

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerConcurrentHammer drives Begin/Finish/Recent/Find/Dropped
// from many goroutines at once; under -race it proves the ring, the
// sampler and the slow-op hook share no unsynchronized state.
func TestTracerConcurrentHammer(t *testing.T) {
	tr := NewTracer(32, 2, 7)
	var slow sync.Map
	tr.OnSlow(time.Nanosecond, func(ts TraceSnapshot) { slow.Store(ts.ID, true) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := string(appendRequestID(nil, uint64(g*500+i+1)))
				trace := tr.Begin(id, "hammer")
				trace.AddSpan("stage", time.Now(), 0)
				trace.AddSpan("external", time.Now(), time.Microsecond)
				tr.Finish(trace)
				if i%17 == 0 {
					tr.Recent(16)
					tr.Find(id)
					tr.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Recent(32); len(got) != 32 {
		t.Fatalf("ring should be full: got %d traces", len(got))
	}
}

// TestSeededSamplingIsReproducible runs the same request sequence
// through two tracers built with identical seeds and sampling rates and
// requires the exact same requests to be picked both times.
func TestSeededSamplingIsReproducible(t *testing.T) {
	pick := func(seed uint64) []int {
		tr := NewTracer(64, 3, seed)
		var out []int
		for i := 0; i < 200; i++ {
			if tr.Begin("req", "req") != nil {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := pick(42), pick(42)
	if len(a) == 0 {
		t.Fatal("sampling 1-in-3 picked nothing in 200 requests")
	}
	if len(a) != len(b) {
		t.Fatalf("two identical runs sampled %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at pick %d: request %d vs %d", i, a[i], b[i])
		}
	}
	// (An odd seed: NewTracer ORs the seed with 1, so 42 and 43 collide
	// by construction.)
	if c := pick(101); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the identical sampling sequence")
		}
	}
}

func TestAdoptBypassesSamplerButHonorsDisabled(t *testing.T) {
	// every=1000: the local sampler would almost surely say no, but an
	// adopted (remotely sampled) trace must record anyway.
	tr := NewTracer(8, 1000, 1)
	a := tr.adopt("req-remote", "wire.bid", time.Now())
	if a == nil {
		t.Fatal("Adopt returned nil on an enabled tracer")
	}
	tr.Finish(a)
	if _, ok := tr.Find("req-remote"); !ok {
		t.Fatal("adopted trace not in ring")
	}
	// every=0 disables tracing entirely; Adopt must respect that (the
	// torture twins depend on a disabled tracer staying inert).
	off := NewTracer(8, 0, 1)
	if off.adopt("req-x", "wire.bid", time.Now()) != nil {
		t.Fatal("Adopt recorded on a disabled tracer")
	}
}

func TestBeginAtBackdatesAndAddSpanOffsets(t *testing.T) {
	tr := NewTracer(8, 1, 1)
	readDur := 5 * time.Millisecond
	start := time.Now().Add(-readDur)
	trace := tr.beginAt("req-1", "wire.bid", start)
	trace.AddSpan("wire.read", start, readDur)
	tr.Finish(trace)
	snap, ok := tr.Find("req-1")
	if !ok {
		t.Fatal("trace not found")
	}
	if snap.DurationUS < readDur.Microseconds() {
		t.Fatalf("backdated trace duration %dus shorter than the read it covers (%v)", snap.DurationUS, readDur)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "wire.read" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	if snap.Spans[0].StartUS != 0 {
		t.Fatalf("wire.read should start at offset 0, got %dus", snap.Spans[0].StartUS)
	}
	if snap.Spans[0].DurationUS != readDur.Microseconds() {
		t.Fatalf("wire.read duration %dus, want %dus", snap.Spans[0].DurationUS, readDur.Microseconds())
	}
}

func TestOnSlowFiresWithStageBreakdown(t *testing.T) {
	tr := NewTracer(8, 1, 1)
	var got []TraceSnapshot
	tr.OnSlow(10*time.Millisecond, func(ts TraceSnapshot) { got = append(got, ts) })

	fast := tr.Begin("req-fast", "bid")
	tr.Finish(fast)

	slow := tr.beginAt("req-slow", "bid", time.Now().Add(-20*time.Millisecond))
	slow.AddSpan("group_commit.fsync", time.Now().Add(-15*time.Millisecond), 15*time.Millisecond)
	tr.Finish(slow)

	if len(got) != 1 || got[0].ID != "req-slow" {
		t.Fatalf("slow hook fired for %+v, want exactly req-slow", got)
	}
	sum := got[0].StageSummary()
	if !strings.Contains(sum, "group_commit.fsync=15ms") {
		t.Fatalf("StageSummary %q missing stage breakdown", sum)
	}

	tr.OnSlow(0, nil) // uninstall
	again := tr.beginAt("req-slow-2", "bid", time.Now().Add(-20*time.Millisecond))
	tr.Finish(again)
	if len(got) != 1 {
		t.Fatal("slow hook fired after uninstall")
	}
}

func TestStageTimerObservesHistogramAndSpan(t *testing.T) {
	tel := NewTelemetry()
	h := tel.Stage("decode")
	tr := tel.Tracer.Begin("req-1", "wire.bid")
	ctx := WithTrace(WithRequestID(context.Background(), "req-1"), tr)

	StageTimer(ctx, h, "decode").End()
	tel.Tracer.Finish(tr)

	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	// The observation must carry the request ID as its bucket exemplar.
	if !slices.ContainsFunc(exposition(t, tel.Registry), func(line string) bool {
		return strings.Contains(line, `stage="decode"`) && strings.Contains(line, ` # {trace_id="req-1"} `)
	}) {
		t.Fatal("no decode bucket exemplar carries the sampled request id")
	}
	snap, ok := tel.Tracer.Find("req-1")
	if !ok || len(snap.Spans) != 1 || snap.Spans[0].Name != "decode" {
		t.Fatalf("trace spans = %+v, want one decode span", snap.Spans)
	}

	// Unsampled: histogram observed, no exemplar stamped.
	h2 := tel.Stage("apply")
	StageTimer(context.Background(), h2, "apply").End()
	if h2.Count() != 1 {
		t.Fatalf("unsampled stage observation lost: count = %d", h2.Count())
	}
	for _, line := range exposition(t, tel.Registry) {
		if strings.Contains(line, `stage="apply"`) && strings.Contains(line, " # ") {
			t.Fatalf("unsampled observation stamped an exemplar: %s", line)
		}
	}
}

func TestStageVecRegistersOnceAcrossLayers(t *testing.T) {
	tel := &Telemetry{Registry: NewRegistry(), Tracer: NewTracer(8, 0, 0)}
	// Several layers bind stages; only one family registration may
	// happen (a second would panic).
	a := tel.Stage("wire.read")
	b := tel.Stage("wire.read")
	if a != b {
		t.Fatal("same stage bound twice returned different series")
	}
	tel.Stage("group_commit.fsync")
	var buf strings.Builder
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `shield_stage_seconds_bucket{stage="wire.read"`) {
		t.Fatalf("exposition missing stage family:\n%s", buf.String())
	}
}
