package journal

import (
	"fmt"
	"io"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// The slice-returning log readers. The package exported them until
// nothing but tests called them (recovery streams: ScanRecords →
// replay.record); the crash, golden and fuzz tests still want a log as a
// slice of events and a market at each of its prefixes.

// Recover materializes every event of a log; see Scan for the rest.
func Recover(r io.Reader) (events []Event, durable int64, torn bool, err error) {
	durable, torn, err = Scan(r, 1, func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	return events, durable, torn, nil
}

// Read is Recover for a log that must open with a well-formed head of
// this build's format version; a single trailing torn record is dropped.
func Read(r io.Reader) ([]Event, error) {
	events, _, _, err := Recover(r)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, ErrNoGenesis
	}
	switch head := events[0]; {
	case head.Op == OpGenesis && head.Config != nil:
	case head.Op == OpSnapshot && head.Snapshot != nil:
	default:
		return nil, ErrNoGenesis
	}
	if v := events[0].V; v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, v, FormatVersion)
	}
	return events, nil
}

// Bootstrap builds a market from an event slice: the head seeds the
// state, the tail replays onto it through the command core, and the read
// views are built once at the end — what streaming recovery does.
func Bootstrap(events []Event) (*market.Market, error) {
	if len(events) == 0 {
		return nil, ErrNoGenesis
	}
	st, err := stateFromHead(events[0])
	if err != nil {
		return nil, err
	}
	for _, e := range events[1:] {
		cmd, err := CommandFromEvent(e)
		if err == nil {
			_, err = command.Apply(st, cmd)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: event %d (%s): %v", ErrReplay, e.Seq, e.Op, err)
		}
	}
	return market.FromState(st), nil
}
