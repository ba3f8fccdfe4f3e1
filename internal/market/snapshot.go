package market

import (
	"bytes"

	"github.com/datamarket/shield/internal/command"
)

// Snapshot types, aliased from the command core, which owns the
// serializable state since the command-core refactor. The JSON shape is
// unchanged.
type (
	// BuyerSnapshot is one buyer account's serializable state.
	BuyerSnapshot = command.BuyerSnapshot
	// SellerSnapshot is one seller account's serializable state.
	SellerSnapshot = command.SellerSnapshot
	// Snapshot is the market's full serializable state. Restoring it
	// yields a market that behaves identically from that point on
	// (engine randomness included), so a snapshot plus the journal tail
	// recorded after it reconstructs the books exactly.
	Snapshot = command.Snapshot
)

// Snapshot captures the whole market state: a cut under the writer mutex
// — a consistent view between two commands, on a journaled market between
// two durable groups — whose tree is built once the mutex is released.
func (m *Market) Snapshot() Snapshot {
	return m.cut().Snapshot()
}

// Canonical returns the market's canonical bytes — Snapshot.Canonical's
// — streamed from a cut taken under the writer mutex, with no tree built.
// Two markets are in the same state exactly when these bytes are equal.
func (m *Market) Canonical() []byte {
	var b bytes.Buffer
	_ = m.cut().WriteCanonical(&b) // a bytes.Buffer never fails a write
	return b.Bytes()
}

func (m *Market) cut() *command.Cut {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.Cut()
}

// RestoreSnapshot reconstructs a market from a snapshot, validating
// cross-references (every engine has a graph node, every owner exists,
// every transaction's parties exist).
func RestoreSnapshot(s Snapshot) (*Market, error) {
	st, err := command.RestoreState(s)
	if err != nil {
		return nil, err
	}
	return FromState(st), nil
}
