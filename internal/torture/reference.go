package torture

import (
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// The reference model is the deterministic command core itself
// (internal/command): a *command.State driven single-threaded through
// command.Apply, with none of the real system's locking, journaling, or
// telemetry. Before the command-core refactor a reference hand-mirrored
// the market semantics in ~560 lines of duplicated rules; now "the
// reference agrees with the live market on the rules" is structural —
// both are the same Apply — and what the differential actually tests is
// everything the live market layers on top: the commit stage, the
// lock-free read views, journaling, and replay. The mutation canary
// (TestMutationCanary) keeps the harness honest by perturbing only the
// live replicas' engines and asserting the differential still trips.
//
// The reference deliberately receives no canary perturbation: that hook
// exists so a test can break the real replicas' pricing and prove this
// model catches it.

// applyRef applies one op to the reference state as the live replicas
// answer it: a query reads the state, and a batch applies its bids
// strictly one at a time, in request order, each answered on its own.
func applyRef(st *command.State, op Op) opResult {
	if op.Kind == OpQuery {
		s, err := st.Stats(op.Dataset)
		return opResult{stats: s, err: err}
	}
	cmd, _ := commandFromOp(op) // every op but a query has one
	if batch, ok := cmd.(command.BidBatch); ok {
		res := opResult{batch: make([]market.BidResult, len(batch.Bids))}
		for i, b := range batch.Bids {
			evs, err := command.Apply(st, b)
			if res.batch[i].Err = err; err == nil {
				res.batch[i].Decision = evs[0].Decision
			}
		}
		return res
	}
	evs, err := command.Apply(st, cmd)
	switch {
	case err != nil:
		return opResult{err: err}
	case op.Kind == OpTick:
		return opResult{tick: evs[0].Period}
	case op.Kind == OpBid:
		return opResult{dec: evs[0].Decision}
	}
	return opResult{}
}
