package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansThroughContext(t *testing.T) {
	tr := NewTracer(16, 1, 42)
	id := string(appendRequestID(nil, 1))
	trace := tr.Begin(id, "POST /v1/bids")
	if trace == nil {
		t.Fatal("sample-every-1 tracer skipped a request")
	}
	ctx := WithTrace(WithRequestID(context.Background(), id), trace)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("request id = %q, want %q", got, id)
	}

	end := StartSpan(ctx, "apply")
	time.Sleep(time.Millisecond)
	end.End()
	end = StartSpan(ctx, "publish")
	end.End()
	tr.Finish(trace)

	recent := tr.Recent(10)
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(recent))
	}
	got := recent[0]
	if got.ID != id || got.Name != "POST /v1/bids" {
		t.Fatalf("trace header = %+v", got)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "apply" || got.Spans[1].Name != "publish" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].DurationUS < 900 {
		t.Fatalf("slept span duration = %dus", got.Spans[0].DurationUS)
	}
	if got.DurationUS < got.Spans[0].DurationUS {
		t.Fatalf("trace shorter than its span: %+v", got)
	}
}

// TestSpanOnUnsampledRequestIsFree: a context without a trace produces
// working no-op spans, so instrumented code never branches on sampling.
func TestSpanOnUnsampledRequestIsFree(t *testing.T) {
	tr := NewTracer(4, 0, 1) // sampling disabled
	if trace := tr.Begin("req-x", "x"); trace != nil {
		t.Fatal("disabled tracer sampled a request")
	}
	end := StartSpan(context.Background(), "anything")
	end.End() // must not panic
	var nilTrace *Trace
	nilTrace.SetName("still fine")
	nilTrace.AddSpan("noop", time.Now(), 0)
	tr.Finish(nilTrace)
	if got := tr.Recent(10); len(got) != 0 {
		t.Fatalf("recent = %v, want empty", got)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(3, 1, 7)
	for i := 0; i < 5; i++ {
		trace := tr.Begin(fmt.Sprintf("req-%d", i), "t")
		tr.Finish(trace)
	}
	recent := tr.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	// Most recent first.
	for i, want := range []string{"req-4", "req-3", "req-2"} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

// TestSamplingDeterministicAndProportional: the same seed yields the
// same decisions, and 1-in-N sampling lands near 1/N.
func TestSamplingDeterministicAndProportional(t *testing.T) {
	decide := func(seed uint64) []bool {
		tr := NewTracer(4, 8, seed)
		out := make([]bool, 4000)
		for i := range out {
			out[i] = tr.Begin("id", "t") != nil
		}
		return out
	}
	a, b := decide(99), decide(99)
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled < 300 || sampled > 700 {
		t.Fatalf("1-in-8 sampling took %d of 4000", sampled)
	}
	c := decide(100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical sampling sequences")
	}
}

// TestConcurrentSpans: one trace written from many goroutines (the
// batch-bid fan-out shape) is race-free under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(8, 1, 3)
	trace := tr.Begin("req-batch", "batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				trace.AddSpan(fmt.Sprintf("w%d", w), time.Now(), 0)
			}
		}(w)
	}
	wg.Wait()
	tr.Finish(trace)
	got := tr.Recent(1)
	if len(got) != 1 || len(got[0].Spans) != 800 {
		t.Fatalf("spans = %d, want 800", len(got[0].Spans))
	}
}

// TestMintedIDIsSpelledOnDemand: a minted ID is a number in the request
// context, and every reader that needs text spells it as appendRequestID
// does — "req-%08x" past 32 bits too — while a sampled request's
// trace carries it from the start.
func TestMintedIDIsSpelledOnDemand(t *testing.T) {
	unsampled, sampled := NewTracer(4, 0, 1), NewTracer(4, 1, 1)
	rc := &RequestCtx{Context: context.Background()}
	if tr := rc.mint(unsampled, "wire", time.Now()); tr != nil {
		t.Fatal("a disabled tracer sampled a minted request")
	}
	if got := RequestIDFrom(rc); got != "req-00000001" {
		t.Fatalf("RequestIDFrom = %q, want req-00000001", got)
	}
	if got := string(AppendRequestID([]byte("x"), rc)); got != "xreq-00000001" {
		t.Fatalf("AppendRequestID = %q, want xreq-00000001", got)
	}
	sampled.seq.Store(1<<32 - 1)
	tr := rc.mint(sampled, "wire", time.Now())
	if want := fmt.Sprintf("req-%08x", uint64(1<<32)); tr == nil || tr.ID != want || RequestIDFrom(rc) != want {
		t.Fatalf("sampled mint: trace %+v, RequestIDFrom %q, want both %q", tr, RequestIDFrom(rc), want)
	}
	rc.Reset("req-peer", nil)
	if got := string(AppendRequestID(nil, rc)); got != "req-peer" {
		t.Fatalf("after Reset, AppendRequestID = %q, want req-peer", got)
	}
	if got := AppendRequestID(nil, context.Background()); got != nil {
		t.Fatalf("a context with no ID appended %q", got)
	}
}
