package market

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"github.com/datamarket/shield/internal/command"
)

// TestWaitIs8Bytes pins a running wait's slot at 8 bytes: the dataset
// index and the wait's end, an int32 as the state's record holds it. A
// field that re-pads the slot fails here by name.
func TestWaitIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(wait{}); n != 8 {
		t.Fatalf("a wait slot is %d bytes, want 8", n)
	}
}

// TestClockLastPeriod: a market restored two ticks from MaxPeriod. A
// losing bid whose wait crosses MaxPeriod reports its whole wait, and
// the state and the view hold it as ending at MaxPeriod, which no clock
// reaches: after the last tick one period remains, and a bid is still
// refused. The tick past the last period is refused and moves nothing.
func TestClockLastPeriod(t *testing.T) {
	s := setupBasic(t).Snapshot()
	s.Clock = command.MaxPeriod - 2
	m, err := RestoreSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.SubmitBid("carol", "weather", 1)
	if err != nil || d.Allocated || d.WaitPeriods <= 2 {
		t.Fatalf("a low bid at MaxPeriod-2: %+v, %v; want a loss whose wait crosses MaxPeriod", d, err)
	}
	if got := m.Snapshot().Buyers["carol"].BlockedUntil["weather"]; got != command.MaxPeriod {
		t.Fatalf("the state holds the wait as ending at %d, want MaxPeriod", got)
	}
	if p := m.Tick(); p != command.MaxPeriod-1 {
		t.Fatalf("the last tick reached %d, want MaxPeriod-1", p)
	}
	if rem, err := m.WaitRemaining("carol", "weather"); err != nil || rem != command.MaxPeriod-m.Period() {
		t.Fatalf("WaitRemaining = %d, %v; want MaxPeriod - clock = 1", rem, err)
	}
	if _, err := m.SubmitBid("carol", "weather", 1); !errors.Is(err, ErrWaitActive) {
		t.Fatalf("a bid in the saturated wait: %v, want ErrWaitActive", err)
	}
	before := m.Canonical()
	if _, err := m.Apply(command.Tick{}); !errors.Is(err, command.ErrClockExhausted) {
		t.Fatalf("a tick at MaxPeriod-1: %v, want ErrClockExhausted", err)
	}
	if p := m.Tick(); p != 0 || m.Period() != command.MaxPeriod-1 || !bytes.Equal(m.Canonical(), before) {
		t.Fatalf("a refused tick returned %d and left the clock at %d, state unchanged %v", p, m.Period(), bytes.Equal(m.Canonical(), before))
	}
}
