package loadrig

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, so pacer arithmetic is tested
// without wall-clock time.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerScheduleIsFixedMultiples(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p, err := newPacerClock(1000, clk.now, clk.sleep) // 1ms interval
	if err != nil {
		t.Fatal(err)
	}
	start := clk.t
	for i := 0; i < 50; i++ {
		due := p.Next()
		want := start.Add(time.Duration(i) * time.Millisecond)
		if !due.Equal(want) {
			t.Fatalf("slot %d due %v, want %v", i, due, want)
		}
		if clk.t.Before(due) {
			t.Fatalf("slot %d returned before its due time", i)
		}
	}
}

// TestPacerDoesNotShiftWhenBehind is the coordinated-omission guard: a
// dispatcher that stalls (a long GC pause, a slow channel) gets the
// ORIGINAL scheduled times back, in the past, with no sleeping — the
// schedule never slides to absorb the stall, so latency measured from
// the returned times includes it.
func TestPacerDoesNotShiftWhenBehind(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	slept := 0
	p, err := newPacerClock(1000, clk.now, func(d time.Duration) { slept++; clk.sleep(d) })
	if err != nil {
		t.Fatal(err)
	}
	start := clk.t
	p.Next() // slot 0 anchors the schedule

	// The dispatcher stalls for 10ms — ten full slots.
	clk.advance(10 * time.Millisecond)
	sleptBefore := slept
	for i := 1; i <= 10; i++ {
		due := p.Next()
		want := start.Add(time.Duration(i) * time.Millisecond)
		if !due.Equal(want) {
			t.Fatalf("slot %d after stall due %v, want the unshifted %v", i, due, want)
		}
		if due.After(clk.t) {
			t.Fatalf("slot %d is in the future after a stall", i)
		}
	}
	if slept != sleptBefore {
		t.Fatalf("pacer slept %d times while behind schedule", slept-sleptBefore)
	}
	// Latency accounted from the scheduled time sees the stall:
	// slot 1 was due 9ms before the clock now reads.
	if lag := clk.t.Sub(start.Add(1 * time.Millisecond)); lag != 9*time.Millisecond {
		t.Fatalf("slot-1 lag %v, want 9ms", lag)
	}
	// Once caught up, pacing resumes on the original grid.
	due := p.Next()
	if want := start.Add(11 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("post-stall slot due %v, want %v", due, want)
	}
}

// TestPacerHoldsTargetRate drives a real-clock pacer and checks the
// elapsed time brackets the scheduled duration: never faster than the
// schedule allows, and (generously, for loaded CI machines) not wildly
// slower.
func TestPacerHoldsTargetRate(t *testing.T) {
	const rate, slots = 2000.0, 200 // 100ms of schedule
	p, err := NewPacer(rate)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	var last time.Time
	for i := 0; i < slots; i++ {
		last = p.Next()
	}
	elapsed := time.Since(begin)
	scheduled := time.Duration(slots-1) * p.interval
	if elapsed < scheduled {
		t.Fatalf("finished %d slots in %v, faster than the %v schedule", slots, elapsed, scheduled)
	}
	if elapsed > scheduled+5*time.Second {
		t.Fatalf("finished %d slots in %v, want near %v", slots, elapsed, scheduled)
	}
	if got := last.Sub(p.start); got != scheduled {
		t.Fatalf("final slot scheduled at +%v, want +%v", got, scheduled)
	}
}

func TestPacerRejectsNonPositiveRate(t *testing.T) {
	for _, r := range []float64{0, -5} {
		if _, err := NewPacer(r); err == nil {
			t.Errorf("NewPacer(%v) accepted a non-positive rate", r)
		}
	}
}
