// Package loadrig is the cluster-in-process load rig: it boots
// marketd's own server (node.Start: HTTP and wire transports over one
// journaled, group-committed market with telemetry), seeds a catalog,
// and drives thousands of concurrent persona-driven client connections
// at an open-loop target rate, measuring end-to-end latency per
// operation class and gating the run on a declarative SLO spec.
//
// # Open loop, not closed loop
//
// The rig dispatches operations on a fixed schedule computed up front
// from the target rate, regardless of how fast the server answers.
// Latency is measured from each operation's scheduled send time — not
// from the moment a worker got around to sending it — so a server
// slowdown shows up as queueing delay in the tail percentiles instead
// of silently reducing the offered load. This is the standard defense
// against coordinated omission: a closed-loop driver that waits for
// each response before sending the next request self-throttles around a
// stall and reports flattering tails.
//
// # SLO gates
//
// A scenario carries a spec like "bid.p99<5ms,error_rate<0.1%"; after
// the run (and the post-run books, recovery and convergence checks)
// the spec is evaluated against the measured report and violations are
// returned by name, so cmd/shieldload can exit nonzero and fail CI on a
// latency regression.
package loadrig

import (
	"fmt"
	"time"
)

// Pacer emits an open-loop schedule: slot i is due at start + i/rate,
// where start is fixed when the first slot is taken. Next blocks until
// the next slot is due and returns its scheduled time; when the caller
// has fallen behind, Next returns immediately with the original
// scheduled time, which is in the past — the schedule never shifts to
// absorb delay, so latency measured from the returned time includes
// every queued microsecond. A Pacer is not safe for concurrent use:
// one dispatcher owns it.
type Pacer struct {
	interval time.Duration
	start    time.Time
	n        int64

	// Injected clock, so the schedule arithmetic is testable without
	// real sleeping. Production pacers use the real clock.
	now   func() time.Time
	sleep func(d time.Duration)
}

// NewPacer returns a pacer for the target rate in operations per
// second. Rates must be positive: an open-loop rig has no "as fast as
// possible" mode — that is a closed loop by another name.
func NewPacer(rate float64) (*Pacer, error) {
	return newPacerClock(rate, time.Now, time.Sleep)
}

// newPacerClock is NewPacer with an injected clock (tests).
func newPacerClock(rate float64, now func() time.Time, sleep func(time.Duration)) (*Pacer, error) {
	if !(rate > 0) {
		return nil, fmt.Errorf("loadrig: open-loop rate must be positive, got %v", rate)
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = 1 // sub-nanosecond rates degenerate to back-to-back slots
	}
	return &Pacer{interval: interval, now: now, sleep: sleep}, nil
}

// Next blocks until the next schedule slot is due and returns the
// slot's scheduled time. The first call anchors the schedule at the
// current clock reading.
func (p *Pacer) Next() time.Time {
	if p.start.IsZero() {
		p.start = p.now()
	}
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	return due
}

// Interval returns the schedule spacing (1/rate).
func (p *Pacer) Interval() time.Duration { return p.interval }
