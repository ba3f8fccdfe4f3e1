package journal

import (
	"bytes"
	"errors"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// TestClockLastPeriodJournaled: a store whose checkpoint holds the clock
// two ticks from MaxPeriod. A wait that crosses MaxPeriod is journaled
// and recovered as ending at MaxPeriod; the tick past the last period is
// refused with ErrClockExhausted, writes no record and moves nothing, so
// recovery rebuilds the very state and waits the live market served.
func TestClockLastPeriodJournaled(t *testing.T) {
	m, err := market.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []command.Command{command.RegisterSeller{Seller: "s"}, command.UploadDataset{Seller: "s", Dataset: "d"}, command.RegisterBuyer{Buyer: "b"}} {
		if _, err := m.Apply(cmd); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	s.Clock = command.MaxPeriod - 2
	canonical := canonicalOf(t, "two ticks from MaxPeriod", s)
	dir, sc := t.TempDir(), StoreConfig{CheckpointEvery: -1, RetainSegments: -1}
	f, err := reseedFollower(nil, dir, sc, canonical, 3) // a follower's store seeded as a leader's checkpoint
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	jm, _, err := OpenStore(testConfig(), dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := jm.SubmitBid("b", "d", 1); err != nil || d.Allocated || d.WaitPeriods <= 2 {
		t.Fatalf("a low bid at MaxPeriod-2: %+v, %v; want a loss whose wait crosses MaxPeriod", d, err)
	}
	if p, err := jm.Tick(); err != nil || p != command.MaxPeriod-1 {
		t.Fatalf("the last tick: %d, %v", p, err)
	}
	if _, err := jm.SubmitBid("b", "d", 1); !errors.Is(err, market.ErrWaitActive) {
		t.Fatalf("a bid in the saturated wait: %v, want ErrWaitActive", err)
	}
	seq, before := jm.LastSeq(), jm.Canonical()
	if _, err := jm.Tick(); !errors.Is(err, command.ErrClockExhausted) {
		t.Fatalf("a tick at MaxPeriod-1: %v, want ErrClockExhausted", err)
	}
	if jm.LastSeq() != seq || !bytes.Equal(jm.Canonical(), before) {
		t.Fatalf("the refused tick moved LastSeq %d → %d, state unchanged %v", seq, jm.LastSeq(), bytes.Equal(jm.Canonical(), before))
	}
	wait, err := jm.WaitRemaining("b", "d")
	if err != nil || wait != 1 {
		t.Fatalf("WaitRemaining = %d, %v; want MaxPeriod - clock = 1", wait, err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Canonical(), before) {
		t.Fatalf("recovered state differs: %s", got.Snapshot().Diff(jm.Snapshot()))
	}
	if rem, err := got.WaitRemaining("b", "d"); err != nil || rem != wait {
		t.Fatalf("recovered WaitRemaining = %d, %v; want %d", rem, err, wait)
	}
}
