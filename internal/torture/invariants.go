package torture

import (
	"fmt"
	"sort"

	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
)

// errString is the comparison key for errors. The reference model
// reproduces the real market's wrap formats exactly, so full-string
// equality is both achievable and the strictest check available.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffResults compares one op's outcome between the reference and a
// replica, returning "" when they agree.
func diffResults(op Op, ref, got opResult) string {
	if errString(ref.err) != errString(got.err) {
		return fmt.Sprintf("error %q vs reference %q", errString(got.err), errString(ref.err))
	}
	switch op.Kind {
	case OpTick:
		if ref.tick != got.tick {
			return fmt.Sprintf("clock %d vs reference %d", got.tick, ref.tick)
		}
	case OpBid:
		if ref.dec != got.dec {
			return fmt.Sprintf("decision %+v vs reference %+v", got.dec, ref.dec)
		}
	case OpBatch:
		if len(ref.batch) != len(got.batch) {
			return fmt.Sprintf("batch result length %d vs reference %d", len(got.batch), len(ref.batch))
		}
		for i := range ref.batch {
			if ref.batch[i].Decision != got.batch[i].Decision {
				return fmt.Sprintf("batch entry %d decision %+v vs reference %+v",
					i, got.batch[i].Decision, ref.batch[i].Decision)
			}
			if errString(ref.batch[i].Err) != errString(got.batch[i].Err) {
				return fmt.Sprintf("batch entry %d error %q vs reference %q",
					i, errString(got.batch[i].Err), errString(ref.batch[i].Err))
			}
		}
	case OpQuery:
		if ref.stats != got.stats {
			return fmt.Sprintf("stats %+v vs reference %+v", got.stats, ref.stats)
		}
	}
	return ""
}

// checkBidInvariants validates the paper's per-decision guarantees on
// the reference outcome: winners pay a posting price (positive, at most
// their bid, inside the candidate range), losers receive a bounded
// non-negative Time-Shield wait.
func (h *harness) checkBidInvariants(op Op, res opResult) string {
	check := func(amount float64, dec market.Decision, err error) string {
		if err != nil {
			return ""
		}
		if dec.Allocated {
			paid := dec.PricePaid
			if paid <= 0 {
				return fmt.Sprintf("winning bid paid non-positive price %s", paid)
			}
			if paid > market.FromFloat(amount) {
				return fmt.Sprintf("winner paid %s above its bid %v", paid, amount)
			}
			lo, hi := candidateRange(h.cfg.Engine.Candidates)
			if paid < market.FromFloat(lo) || paid > market.FromFloat(hi) {
				return fmt.Sprintf("price paid %s outside candidate range [%v, %v]", paid, lo, hi)
			}
			if dec.WaitPeriods != 0 {
				return fmt.Sprintf("winner assigned wait %d", dec.WaitPeriods)
			}
			return ""
		}
		if dec.WaitPeriods < 0 || dec.WaitPeriods > h.maxWait {
			return fmt.Sprintf("loser wait %d outside [0, %d]", dec.WaitPeriods, h.maxWait)
		}
		return ""
	}
	switch op.Kind {
	case OpBid:
		return check(op.Amount, res.dec, res.err)
	case OpBatch:
		for i, spec := range op.Bids {
			if i >= len(res.batch) {
				break
			}
			if reason := check(spec.Amount, res.batch[i].Decision, res.batch[i].Err); reason != "" {
				return fmt.Sprintf("batch entry %d: %s", i, reason)
			}
		}
	}
	return ""
}

func candidateRange(cands []float64) (lo, hi float64) {
	lo, hi = cands[0], cands[0]
	for _, c := range cands[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return lo, hi
}

// checkConservation enforces ledger-level money conservation on the
// reference books after every op: market revenue must equal the running
// sum of transaction prices. The whole-books sweep over buyer and
// seller accounts is each twin's CheckBooks, run at checkpoints after
// checkTotals (which, with the canonical snapshots equal, carries it
// over to the reference) — churn personas grow the account population
// with the run, so an every-op O(accounts) sweep would make 10⁷-op
// storms quadratic in ops.
func (h *harness) checkConservation() string {
	revenue := h.ref.Revenue()
	for log := h.ref.TxLog(h.ref.TxCount()); h.txCount < log.Len(); h.txCount++ {
		h.txSum += log.At(h.txCount).Price
	}
	if revenue != h.txSum {
		return fmt.Sprintf("money not conserved: revenue=%s txsum=%s", revenue, h.txSum)
	}
	return ""
}

// checkTotals cross-checks the real replicas' ledger totals against the
// reference at checkpoints.
func (h *harness) checkTotals() string {
	wantRev, wantSpent, wantBal := h.ref.Totals()
	for _, r := range h.replicas {
		rev, spent, bal := r.jm.Totals()
		if rev != wantRev || spent != wantSpent || bal != wantBal {
			return fmt.Sprintf("replica %s totals (%s, %s, %s) != reference (%s, %s, %s)",
				r.name, rev, spent, bal, wantRev, wantSpent, wantBal)
		}
	}
	return ""
}

// checkWaitMonotone probes the Time-Shield guarantee on every reference
// engine: under the Bound replay strategy, a higher bid must never be
// assigned a longer wait (Claim 3's optimism is monotone in the bid).
// The probe is side-effect-free — computeWaitPeriod replays on a copy
// of the weights in engine scratch and consumes no randomness. WaitStable
// replays the bid itself as the synthetic future, which carries no
// cross-bid ordering guarantee, so the probe only runs under WaitBound.
func (h *harness) checkWaitMonotone() string {
	if h.cfg.Engine.DisableWaitPeriods || h.cfg.Engine.Wait != core.WaitBound {
		return ""
	}
	// Deterministic engine order: DatasetIDs is sorted.
	ids := h.ref.DatasetIDs()

	lo, hi := candidateRange(h.cfg.Engine.Candidates)
	ladder := append([]float64{lo / 2}, h.cfg.Engine.Candidates...)
	sort.Float64s(ladder)
	ladder = append(ladder, hi+1)

	for _, id := range ids {
		prev := -1
		prevBid := 0.0
		for i, b := range ladder {
			w, err := h.ref.ComputeWait(id, b)
			if err != nil {
				return fmt.Sprintf("dataset %s: wait probe: %v", id, err)
			}
			if w < 0 || w > h.maxWait {
				return fmt.Sprintf("dataset %s: probe wait %d for bid %v outside [0, %d]", id, w, b, h.maxWait)
			}
			if i > 0 && w > prev {
				return fmt.Sprintf("dataset %s: wait not monotone: bid %v waits %d but higher bid %v waits %d",
					id, prevBid, prev, b, w)
			}
			prev, prevBid = w, b
		}
	}
	return ""
}
