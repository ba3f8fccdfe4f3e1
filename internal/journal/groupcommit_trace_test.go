package journal

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/obs"
)

// TestGroupCommitStageSpans pins the grouped write path's stage
// decomposition: a sampled leader's trace carries
// group_commit.queue_wait, group_commit.append and group_commit.fsync
// spans, the same stages land on shield_stage_seconds with the
// request's ID as a bucket exemplar, and the leader-wait histogram
// counts one observation per group — the genesis's and the append's.
func TestGroupCommitStageSpans(t *testing.T) {
	tel := obs.NewTelemetry() // sampling 1: every request records spans
	var sink syncBuffer
	w := NewWriter(&sink, WithFsync(), WithTelemetry(tel))
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}

	const id = "req-00000001"
	tr := tel.Tracer.Begin(id, "bid")
	ctx := obs.WithTrace(obs.WithRequestID(context.Background(), id), tr)
	if err := w.AppendCtx(ctx, Event{Op: OpRegisterBuyer, Buyer: "b"}); err != nil {
		t.Fatal(err)
	}
	tel.Tracer.Finish(tr)

	snap, ok := tel.Tracer.Find(id)
	if !ok {
		t.Fatal("trace not in ring")
	}
	got := map[string]bool{}
	for _, s := range snap.Spans {
		got[s.Name] = true
	}
	for _, want := range []string{"group_commit.queue_wait", "group_commit.append", "group_commit.fsync"} {
		if !got[want] {
			t.Fatalf("leader trace spans %v missing %q", snap.Spans, want)
		}
	}

	// Stage histograms observed the same stages, exemplar-stamped on
	// /metrics.
	var metrics strings.Builder
	if err := tel.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	stamped := map[string]bool{}
	for _, line := range strings.Split(metrics.String(), "\n") {
		name, labels, _, ex, err := obs.ParseSample(line)
		if err == nil && name == "shield_stage_seconds_bucket" && ex != nil && ex.TraceID == id {
			stamped[labels[0][1]] = true
		}
	}
	for _, stage := range []string{"group_commit.queue_wait", "group_commit.append", "group_commit.fsync"} {
		if h, ok := tel.Registry.FindHistogram("shield_stage_seconds", stage); !ok || h.Count() == 0 {
			t.Fatalf("stage %q has no observations", stage)
		}
		if !stamped[stage] {
			t.Fatalf("stage %q carries no exemplar for %s", stage, id)
		}
	}

	if lw, ok := tel.Registry.FindHistogram("shield_journal_group_leader_wait_seconds"); !ok {
		t.Fatal("no leader-wait histogram")
	} else if n := lw.Count(); n != 2 {
		t.Fatalf("leader-wait histogram count = %d, want 2", n)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitFollowerSeesQueueWait drives two concurrent appends
// through one window so one rides the other's flush, and checks the
// follower's trace carries only its queue wait — the flush spans belong
// to the leader.
func TestGroupCommitFollowerSeesQueueWait(t *testing.T) {
	tel := obs.NewTelemetry()
	var sink syncBuffer
	w := NewWriter(&sink, WithFsync(), WithGroupCommit(20*time.Millisecond), WithTelemetry(tel))
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i := range ids {
		ids[i] = fmt.Sprintf("req-%08x", i+1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := tel.Tracer.Begin(ids[i], "bid")
			ctx := obs.WithTrace(obs.WithRequestID(context.Background(), ids[i]), tr)
			if err := w.AppendCtx(ctx, Event{Op: OpRegisterBuyer, Buyer: ids[i]}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			tel.Tracer.Finish(tr)
		}(i)
		// Stagger so the second append lands inside the first's window.
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if w.maxGroup < 2 {
		t.Skip("appends did not share a group; timing too coarse on this machine")
	}

	leaders, followers := 0, 0
	for _, id := range ids {
		snap, ok := tel.Tracer.Find(id)
		if !ok {
			t.Fatalf("trace %s not in ring", id)
		}
		names := map[string]bool{}
		for _, s := range snap.Spans {
			names[s.Name] = true
		}
		if !names["group_commit.queue_wait"] {
			t.Fatalf("trace %s spans %v missing queue wait", id, snap.Spans)
		}
		if names["group_commit.append"] {
			leaders++
		} else {
			followers++
		}
	}
	if leaders != 1 || followers != 1 {
		t.Fatalf("got %d leaders and %d followers, want exactly one of each", leaders, followers)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
