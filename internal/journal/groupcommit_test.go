package journal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/faultfs"
	"github.com/datamarket/shield/internal/market"
)

// syncBuffer is a syncable in-memory sink that counts Sync calls, so
// tests can prove group commit amortizes fsyncs across records.
type syncBuffer struct {
	bytes.Buffer
	syncs int
}

func (s *syncBuffer) Sync() error {
	s.syncs++
	return nil
}

// groupWriter builds a started group-commit writer over sink.
func groupWriter(t *testing.T, sink *syncBuffer, window time.Duration) *Writer {
	t.Helper()
	w := NewWriter(sink, WithFsync(), WithGroupCommit(window))
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	return w
}

// genesisSize measures the encoded head record, so fault offsets can be
// placed precisely relative to the first body flush.
func genesisSize(t *testing.T) int64 {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Genesis(testConfig()); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// TestGroupCommitCoalesces hammers a group-commit writer from many
// goroutines and asserts every acknowledged record is durable, the log
// is an unbroken sequence, and the fsync count is strictly below the
// record count (records actually coalesced).
func TestGroupCommitCoalesces(t *testing.T) {
	const goroutines, perG = 8, 40
	var sink syncBuffer
	w := groupWriter(t, &sink, 200*time.Microsecond)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e := Event{Op: OpRegisterBuyer, Buyer: fmt.Sprintf("b%d-%d", g, i)}
				if err := w.Append(e); err != nil {
					t.Errorf("append g%d-%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, _, torn, err := Recover(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean shutdown left a torn tail")
	}
	want := 1 + goroutines*perG
	if len(events) != want {
		t.Fatalf("recovered %d events, want %d", len(events), want)
	}
	seen := map[string]bool{}
	for _, e := range events[1:] {
		seen[e.Buyer] = true
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if id := fmt.Sprintf("b%d-%d", g, i); !seen[id] {
				t.Fatalf("acked record %s missing from the log", id)
			}
		}
	}
	// Genesis syncs never group; the body records must have coalesced.
	if sink.syncs >= want {
		t.Fatalf("%d fsyncs for %d records: no coalescing", sink.syncs, want)
	}
	if w.maxGroup < 2 {
		t.Fatalf("max group size %d: concurrent appends never shared a flush", w.maxGroup)
	}
	t.Logf("%d records, %d fsyncs, %d groups, max group %d",
		want, sink.syncs, w.groups, w.maxGroup)
}

// queueGate wraps a writer's sink: its first write announces itself on
// entered and then holds the stage until want members are queued in the
// writer's forming group (or five seconds pass), so the test — not the
// scheduler — decides how commands group.
type queueGate struct {
	io.Writer
	w       *Writer
	want    int
	entered chan struct{}
	once    sync.Once
}

func (g *queueGate) writeGroup(p []byte, records int) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			g.w.mu.Lock()
			queued := g.w.cur != nil && len(g.w.cur.members) >= g.want
			g.w.mu.Unlock()
			if queued {
				return
			}
		}
	})
	if gs, ok := g.Writer.(groupSink); ok {
		return gs.writeGroup(p, records)
	}
	return g.Writer.Write(p)
}

// TestDefaultWriterGroups: a market built with no options — over a plain
// sink or as a store — coalesces concurrent commands. One command holds
// the stage in the sink; the four that arrive meanwhile commit as one
// group.
func TestDefaultWriterGroups(t *testing.T) {
	const queued = 4
	for name, open := range map[string]func() (*Market, error){
		"NewMarket": func() (*Market, error) { return NewMarket(testConfig(), &lockedBuffer{}) },
		"OpenStore": func() (*Market, error) {
			jm, _, err := OpenStore(testConfig(), t.TempDir(), StoreConfig{})
			return jm, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			jm, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer jm.Close()
			gate := &queueGate{Writer: jm.w.sink, w: jm.w, want: queued, entered: make(chan struct{})}
			jm.w.sink = gate
			var wg sync.WaitGroup
			register := func(id market.BuyerID) {
				defer wg.Done()
				if err := jm.RegisterBuyer(id); err != nil {
					t.Error(err)
				}
			}
			wg.Add(1 + queued)
			go register("first")
			<-gate.entered
			for i := 0; i < queued; i++ {
				go register(market.BuyerID(fmt.Sprintf("b%d", i)))
			}
			wg.Wait()
			if jm.w.maxGroup < queued {
				t.Fatalf("largest group %d: the %d commands queued behind a running stage did not share a write", jm.w.maxGroup, queued)
			}
		})
	}
}

// TestGroupCommitCloseDrains starts an append whose group is still
// open, closes the writer concurrently, and asserts the append was
// answered (not abandoned) and its record is durable.
func TestGroupCommitCloseDrains(t *testing.T) {
	var sink syncBuffer
	w := groupWriter(t, &sink, 50*time.Millisecond)
	appended := make(chan error, 1)
	go func() {
		appended <- w.Append(Event{Op: OpRegisterBuyer, Buyer: "slow"})
	}()
	// Give the append time to enqueue and start its window.
	time.Sleep(5 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-appended; err != nil {
		t.Fatalf("append during close: %v", err)
	}
	events, _, _, err := Recover(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Buyer != "slow" {
		t.Fatalf("drained append not durable: %d events", len(events))
	}
	if err := w.Append(Event{Op: OpTick}); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestGroupCommitCrashNoAckedLoss is the mid-group crash harness: for
// every fault kind and a sweep of byte offsets, concurrent appends run
// through a fsynced group-commit writer over a faulty sink; after the
// fault the surviving bytes must recover to an unbroken prefix that
// contains every acknowledged record. A group member acked past a cut
// would be durability fraud; a recovered record set with holes would be
// the "silent prefix of a group" failure the writer must never allow.
func TestGroupCommitCrashNoAckedLoss(t *testing.T) {
	const goroutines, perG = 6, 25
	offsets := []int64{0, 1, 63, 128, 300, 511, 777, 1024, 1500, 2048, 3000, 4096, 6000}
	for _, kind := range []faultfs.Kind{faultfs.Truncate, faultfs.Tear, faultfs.Err} {
		for _, off := range offsets {
			t.Run(fmt.Sprintf("%v@%d", kind, off), func(t *testing.T) {
				t.Parallel()
				var disk bytes.Buffer
				fw := faultfs.NewWriter(&disk, kind, off)
				w := NewWriter(fw, WithFsync(), WithGroupCommit(100*time.Microsecond))
				if err := w.Genesis(testConfig()); err != nil {
					// The fault hit the head record; nothing was acked.
					return
				}
				var (
					mu    sync.Mutex
					acked []string
					wg    sync.WaitGroup
				)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							id := fmt.Sprintf("b%d-%d", g, i)
							err := w.Append(Event{Op: OpRegisterBuyer, Buyer: id})
							if err == nil {
								mu.Lock()
								acked = append(acked, id)
								mu.Unlock()
							}
						}
					}(g)
				}
				wg.Wait()
				w.Close() // may fail; the disk bytes below are the truth

				events, _, _, err := Recover(bytes.NewReader(disk.Bytes()))
				if err != nil {
					t.Fatalf("mid-log corruption after %v fault: %v", kind, err)
				}
				durable := map[string]bool{}
				for _, e := range events {
					durable[e.Buyer] = true
				}
				for _, id := range acked {
					if !durable[id] {
						t.Fatalf("acked record %s lost by %v fault at %d (%d acked, %d durable)",
							id, kind, off, len(acked), len(events))
					}
				}
			})
		}
	}
}

// TestGroupCommitFaultFailsWholeGroup forces a multi-member group of a
// journaled market onto a sink that dies mid-flush and asserts the
// all-or-nothing contract: every member of the failed group sees the
// error, nothing the group did becomes visible to readers, and the
// market is poisoned — unhealthy, every later command refused with the
// original error — for everything after.
func TestGroupCommitFaultFailsWholeGroup(t *testing.T) {
	var disk bytes.Buffer
	// The head record survives intact; the first body flush tears.
	fw := faultfs.NewWriter(&disk, faultfs.Tear, genesisSize(t)+20)
	jm, err := NewMarket(testConfig(), fw, WithFsync(), WithGroupCommit(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const members = 4
	errs := make([]error, members)
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = jm.RegisterBuyer(market.BuyerID(fmt.Sprintf("b%d", i)))
		}(i)
	}
	wg.Wait()
	// The first body flush tears and every later group meets the
	// poisoned writer, so however the four were grouped all of them must
	// have been told, with the one error.
	for i, err := range errs {
		if err == nil {
			t.Fatalf("sink tore mid-group but member %d was acked", i)
		}
		if err.Error() != errs[0].Error() {
			t.Fatalf("members saw different errors: %v / %v", errs[0], err)
		}
		if _, verr := jm.BuyerSpend(market.BuyerID(fmt.Sprintf("b%d", i))); !errors.Is(verr, market.ErrUnknownBuyer) {
			t.Fatalf("buyer b%d is visible (%v) though its registration never reached the disk", i, verr)
		}
	}
	if seq := jm.LastSeq(); seq != 1 {
		t.Fatalf("LastSeq = %d after a failed group; only the head is durable", seq)
	}
	if _, err := jm.Tick(); err == nil || err.Error() != errs[0].Error() {
		t.Fatalf("command after a failed group flush = %v, want the sticky %v", err, errs[0])
	}
	if jm.Period() != 0 {
		t.Fatal("a command refused by the poisoned journal moved the clock")
	}
	if err := jm.Healthy(); err == nil {
		t.Fatal("market reports healthy after a failed group flush")
	}
	if _, _, err := jm.CommittedCut(); err == nil {
		t.Fatal("a poisoned journal handed out a cut as committed")
	}
	// Whatever survived is still a clean prefix.
	if _, _, _, err := Recover(bytes.NewReader(disk.Bytes())); err != nil {
		t.Fatalf("failed group left mid-log corruption: %v", err)
	}
}

// TestSubmitLoneCallerAllocs: an uncontended write is a group of one —
// the common case on the serving path — and must not pay for the
// machinery of a real group: no done channel (nobody waits), and the
// group and its members array are recycled, not made. A lone tick
// entering as its encoding, as both transports enter, allocates nothing.
// Append(Event) has its own budget of 2: the Event's command is boxed
// into the Command interface, and the command is encoded before it joins
// a group.
func TestSubmitLoneCallerAllocs(t *testing.T) {
	jm, err := NewMarket(testConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := jm.ApplyEncodedCtx(ctx, tickBody, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a lone write allocates %.1f times, want 0", allocs)
	}
	if w := jm.w; w.groups != 501+1 || w.maxGroup != 1 || len(w.free) != 1 {
		t.Fatalf("%d groups, largest %d, %d on the free list; want 502 groups of one sharing one recycled group", w.groups, w.maxGroup, len(w.free))
	}

	e := Event{Op: OpBid, Buyer: "buyer-1", Dataset: "dataset", Amount: 42}
	allocs = testing.AllocsPerRun(500, func() {
		if err := jm.w.AppendCtx(ctx, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a lone Append allocates %.1f times, want <= 2", allocs)
	}
}
