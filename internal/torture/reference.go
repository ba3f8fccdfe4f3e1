package torture

import (
	"bytes"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// The reference model is the deterministic command core itself
// (internal/command), run single-threaded with none of the real
// system's locking, journaling, or telemetry. Before the
// command-core refactor this file hand-mirrored the market semantics in
// ~560 lines of duplicated rules; now "the reference agrees with the
// live market on the rules" is structural — both are the same Apply —
// and what the differential actually tests is everything the live
// market layers on top: the commit stage, the lock-free read views,
// journaling, and replay. The mutation canary
// (TestMutationCanary) keeps the harness honest by perturbing only the
// live replicas' engines and asserting the differential still trips.
//
// The reference deliberately receives no canary perturbation: that hook
// exists so a test can break the real replicas' pricing and prove this
// model catches it.

// refMarket is the sequential reference arbiter: one command.State and
// an Apply loop.
type refMarket struct {
	st *command.State
}

// newRefMarket builds the reference arbiter.
func newRefMarket(cfg market.Config) *refMarket {
	return &refMarket{st: command.MustNewState(cfg)}
}

func (r *refMarket) registerBuyer(id market.BuyerID) error {
	_, err := command.Apply(r.st, command.RegisterBuyer{Buyer: id})
	return err
}

func (r *refMarket) registerSeller(id market.SellerID) error {
	_, err := command.Apply(r.st, command.RegisterSeller{Seller: id})
	return err
}

func (r *refMarket) uploadDataset(seller market.SellerID, id market.DatasetID) error {
	_, err := command.Apply(r.st, command.UploadDataset{Seller: seller, Dataset: id})
	return err
}

func (r *refMarket) composeDataset(id market.DatasetID, constituents ...market.DatasetID) error {
	_, err := command.Apply(r.st, command.ComposeDataset{Dataset: id, Constituents: constituents})
	return err
}

func (r *refMarket) withdrawDataset(seller market.SellerID, id market.DatasetID) error {
	_, err := command.Apply(r.st, command.WithdrawDataset{Seller: seller, Dataset: id})
	return err
}

func (r *refMarket) tick() int {
	evs, _ := command.Apply(r.st, command.Tick{})
	return evs[0].Period
}

func (r *refMarket) submitBid(buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error) {
	evs, err := command.Apply(r.st, command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount})
	if err != nil {
		return market.Decision{}, err
	}
	return evs[0].Decision, nil
}

// submitBids mirrors the journaled market's batch semantics: strictly
// sequential application in request order.
func (r *refMarket) submitBids(reqs []market.BidRequest) []market.BidResult {
	out := make([]market.BidResult, len(reqs))
	for i, q := range reqs {
		out[i].Decision, out[i].Err = r.submitBid(q.Buyer, q.Dataset, q.Amount)
	}
	return out
}

func (r *refMarket) stats(dataset market.DatasetID) (market.DatasetStats, error) {
	return r.st.Stats(dataset)
}

// totals mirrors Market.Totals for the conservation invariant.
func (r *refMarket) totals() (revenue, spent, balances market.Money) {
	return r.st.Totals()
}

// snapshot builds the market.Snapshot the real arbiter would produce in
// this state.
func (r *refMarket) snapshot() market.Snapshot {
	return r.st.Snapshot()
}

// canonical returns snapshot's canonical bytes, building no tree.
func (r *refMarket) canonical() []byte {
	var b bytes.Buffer
	_ = r.st.Cut().WriteCanonical(&b) // a bytes.Buffer never fails a write
	return b.Bytes()
}
