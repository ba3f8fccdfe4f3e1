package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/mw"
	"github.com/datamarket/shield/internal/rng"
)

// This file is the test-only reference the scoring kernel is held to:
// the pre-kernel bodies of maybeUpdatePrice, computeWaitPeriod and
// applyEpoch, verbatim — raw-epoch auction.Revenue scans, a fresh cost
// slice per round, a cloned Learner per wait computation, synthetic
// epochs materialized and scored like any other — driving an Engine's
// fields directly. TestKernelMatchesOracle runs a kernel engine and an
// oracle-driven twin in lockstep and compares every Decision, posting
// price and weight by math.Float64bits.

// oracleRevenue is the revenue function the oracle scores with. Only
// TestOracleCanary replaces it.
var oracleRevenue = auction.Revenue

func oracleSubmitBid(e *Engine, b float64) Decision {
	e.bids++
	e.epoch = append(e.epoch, b)

	d := Decision{Price: e.price}
	if b >= e.price && e.price > 0 {
		d.Allocated = true
		e.allocations++
		e.revenue += e.price
	} else if !e.cfg.DisableWaitPeriods {
		d.Wait, _, _ = oracleComputeWaitPeriod(e, b)
	}
	oracleMaybeUpdatePrice(e)
	return d
}

func oracleObserve(e *Engine, b float64) {
	e.epoch = append(e.epoch, b)
	oracleMaybeUpdatePrice(e)
}

func oracleMaybeUpdatePrice(e *Engine) {
	if len(e.epoch) != e.cfg.EpochSize {
		return
	}
	e.epochs++
	_, optR := auction.OptimalPrice(e.epoch)
	if optR > 0 {
		revenue := oracleRevenue(e.epoch, e.price)
		costs := make([]float64, e.learner.Len())
		for i, p := range e.learner.Values() {
			altR := oracleRevenue(e.epoch, p)
			costs[i] = (revenue - altR) / optR
		}
		e.learner.Update(costs, 0)
	}
	e.epoch = e.epoch[:0]
	if e.cfg.RegridEvery > 0 && e.epochs%e.cfg.RegridEvery == 0 {
		e.regrid()
	}
	e.price = e.drawPrice()
}

// oracleComputeWaitPeriod returns the wait, the forked learner's final
// weights, and whether the replay ran at all (false on the two early
// exits, where the kernel leaves its scratch weights untouched).
func oracleComputeWaitPeriod(e *Engine, b float64) (wait int, simWeights []float64, replayed bool) {
	// Learner.Clone went with its last non-test caller; a snapshot round
	// trip is the same deep copy.
	sim, err := mw.Restore(e.learner.Snapshot())
	if err != nil {
		panic(err)
	}
	synthetic := e.cfg.MinBid
	if e.cfg.Wait == WaitStable {
		synthetic = b
	} else if synthetic < e.minCandidate {
		synthetic = e.minCandidate
	}

	likely := e.cfg.Candidates[sim.ArgMax()]
	if b >= likely {
		remaining := e.cfg.EpochSize - len(e.epoch)
		return ceilDiv(remaining, e.cfg.BidsPerPeriod), sim.Weights(), false
	}
	if b < e.minCandidate {
		remaining := e.cfg.EpochSize - len(e.epoch)
		return ceilDiv(remaining+e.cfg.MaxWaitEpochs*e.cfg.EpochSize, e.cfg.BidsPerPeriod), sim.Weights(), false
	}

	epochBids := make([]float64, len(e.epoch), e.cfg.EpochSize)
	copy(epochBids, e.epoch)
	simulated := 0
	for len(epochBids) < e.cfg.EpochSize {
		epochBids = append(epochBids, synthetic)
		simulated++
	}

	chosen := e.price
	for round := 0; round < e.cfg.MaxWaitEpochs; round++ {
		oracleApplyEpoch(sim, epochBids, chosen)
		likely = e.cfg.Candidates[sim.ArgMax()]
		if b >= likely {
			return ceilDiv(simulated, e.cfg.BidsPerPeriod), sim.Weights(), true
		}
		if len(epochBids) != e.cfg.EpochSize || epochBids[0] != synthetic {
			epochBids = epochBids[:0]
			for i := 0; i < e.cfg.EpochSize; i++ {
				epochBids = append(epochBids, synthetic)
			}
		}
		chosen = likely
		simulated += e.cfg.EpochSize
	}
	return ceilDiv(simulated, e.cfg.BidsPerPeriod), sim.Weights(), true
}

func oracleApplyEpoch(l *mw.Learner, epoch []float64, chosen float64) {
	_, optR := auction.OptimalPrice(epoch)
	if optR <= 0 {
		return
	}
	revenue := oracleRevenue(epoch, chosen)
	costs := make([]float64, l.Len())
	for i, p := range l.Values() {
		costs[i] = (revenue - oracleRevenue(epoch, p)) / optR
	}
	l.Update(costs, 0)
}

// fullReplay reports whether ComputeWaitPeriod(b) takes the general
// replay, which leaves the whole scratch weight vector as the oracle's
// final weights, rather than leadRounds, which scores only the experts
// that can lead and leaves no such vector: fixed-share mixing, a live
// epoch that opens with the synthetic bid, or a Bound bid below it.
func fullReplay(e *Engine, b float64) bool {
	synthetic := max(e.cfg.MinBid, e.minCandidate)
	if e.cfg.Wait == WaitStable {
		synthetic = b
	}
	return e.cfg.ShareFraction > 0 || len(e.epoch) > 0 && e.epoch[0] == synthetic || !(b >= synthetic)
}

// sameBits names the first index where two float vectors differ in any
// bit.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// runDifferential drives a kernel engine and its oracle twin through the
// same seeded bid stream. Before every bid — so at every epoch fill
// level, the stream crossing many epochs — it probes ComputeWaitPeriod
// on both with a bid below, inside and above the grid and compares the
// wait and the replay's final scratch weights; then it submits (or, now
// and then, Observes) the bid on both and compares the Decision, the
// next posting price and the live weights. The first divergence comes
// back as an error naming the check that caught it.
func runDifferential(cfg Config, bids int) error {
	kernel, oracle := MustNew(cfg), MustNew(cfg)
	lo, hi := kernel.origLo, kernel.origHi
	r := rng.New(cfg.Seed).Fork("oracle-bids")
	for n := 0; n < bids; n++ {
		fill := len(kernel.epoch)
		for _, probe := range []float64{lo / 2, r.Uniform(lo, hi), lo + float64(r.Intn(4))*(hi-lo)/3, hi * 1.5} {
			got := kernel.ComputeWaitPeriod(probe)
			want, simW, replayed := oracleComputeWaitPeriod(oracle, probe)
			if got != want {
				return fmt.Errorf("bid %d fill %d: ComputeWaitPeriod(%v) = %d, oracle %d", n, fill, probe, got, want)
			}
			if replayed && fullReplay(kernel, probe) {
				if err := sameBits("wait-replay weights", kernel.simW, simW); err != nil {
					return fmt.Errorf("bid %d fill %d: ComputeWaitPeriod(%v): %w", n, fill, probe, err)
				}
			}
		}

		var b float64
		switch r.Intn(8) {
		case 0:
			b = lo / 2 // below every candidate
		case 1:
			b = hi * 1.5 // above every candidate
		case 2:
			b = kernel.cfg.Candidates[r.Intn(len(kernel.cfg.Candidates))] // on a grid point
		default:
			b = math.Max(lo/4, r.Normal((lo+hi)/2, (hi-lo)/3))
		}
		if r.Intn(16) == 0 {
			kernel.Observe(b)
			oracleObserve(oracle, b)
		} else if got, want := kernel.SubmitBid(b), oracleSubmitBid(oracle, b); got != want {
			return fmt.Errorf("bid %d fill %d: SubmitBid(%v) decision %+v, oracle %+v", n, fill, b, got, want)
		}
		if math.Float64bits(kernel.price) != math.Float64bits(oracle.price) {
			return fmt.Errorf("bid %d fill %d: posting price %v, oracle %v", n, fill, kernel.price, oracle.price)
		}
		if err := sameBits("live weights", kernel.Weights(), oracle.Weights()); err != nil {
			return fmt.Errorf("bid %d fill %d: %w", n, fill, err)
		}
	}
	if kernel.epochs < 3*max(1, cfg.RegridEvery) {
		return fmt.Errorf("stream too short: only %d epochs closed", kernel.epochs)
	}
	return nil
}

// oracleGrids are the candidate orders the differential runs: the
// ascending grid LinearGrid and regridding build, and orders a journal's
// genesis or a shield.NewEngine caller may pass, which the scoring
// walk must price alike.
var oracleGrids = map[string][]float64{
	"ascending":  auction.LinearGrid(10, 100, 10),
	"descending": {100, 90, 80, 70, 60, 50, 40, 30, 20, 10},
	"shuffled":   {40, 90, 10, 70, 20, 100, 60, 30, 80, 50},
	"duplicates": {50, 20, 90, 20, 100, 50, 10, 70, 50, 40},
}

// oracleConfigs is the differential's matrix: seeds x wait strategy x
// fixed-share x regrid x bid floor (below the grid, where Bound clamps,
// and inside it, where the synthetic bid splits the candidates) x epoch
// size (1 makes every bid an epoch close), on the grid named.
func oracleConfigs(grid string) []Config {
	var out []Config
	for seed := uint64(1); seed <= 3; seed++ {
		for _, wait := range []WaitStrategy{WaitBound, WaitStable} {
			for _, share := range []float64{0, 0.05} {
				for _, regrid := range []int{0, 3} {
					for _, minBid := range []float64{1, 37} {
						for _, size := range []int{1, 5, 8} {
							out = append(out, Config{
								Candidates:    oracleGrids[grid],
								EpochSize:     size,
								Wait:          wait,
								ShareFraction: share,
								RegridEvery:   regrid,
								MinBid:        minBid,
								BidsPerPeriod: 3,
								Seed:          seed,
							})
						}
					}
				}
			}
		}
	}
	return out
}

func TestKernelMatchesOracle(t *testing.T) {
	for grid := range oracleGrids {
		for _, cfg := range oracleConfigs(grid) {
			name := fmt.Sprintf("%s/seed%d/%v/share%v/regrid%d/minbid%v/E%d",
				grid, cfg.Seed, cfg.Wait, cfg.ShareFraction, cfg.RegridEvery, cfg.MinBid, cfg.EpochSize)
			if err := runDifferential(cfg, 40*cfg.EpochSize+40); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestKernelMatchesOracleAtServingScale repeats the differential on the
// engine marketd and the repository benchmark run — 40 candidates, epochs
// of 8, the bid floor on the cheapest candidate — and on its variants
// with fixed-share mixing (the replay's dense rounds), an adaptive grid,
// and a floor inside the grid, where a Bound round moves every candidate
// at or below it.
func TestKernelMatchesOracleAtServingScale(t *testing.T) {
	for _, wait := range []WaitStrategy{WaitBound, WaitStable} {
		for _, share := range []float64{0, 0.05} {
			for _, regrid := range []int{0, 3} {
				for _, minBid := range []float64{1, 57} {
					cfg := Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1,
						MinBid: minBid, Wait: wait, ShareFraction: share, RegridEvery: regrid, Seed: 9}
					if err := runDifferential(cfg, 600); err != nil {
						t.Errorf("%v/share%v/regrid%d/minbid%v: %v", wait, share, regrid, minBid, err)
					}
				}
			}
		}
	}
}

// TestOracleCanary is the differential's mutation canary: one closed-form
// revenue — what a single candidate earns on an all-synthetic epoch, the
// case the kernel reads off a filled curve instead of scanning every
// round — is counted one winner short, and the differential must trip on
// the wait replay by name. The kernel's curve has no seam to perturb, so the
// error is planted on the oracle's side of the comparison; a difference
// is symmetric, and this is the size and place of error a wrong table
// would make.
func TestOracleCanary(t *testing.T) {
	cfg := Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 5, Wait: WaitStable, MinBid: 1, Seed: 1}
	if err := runDifferential(cfg, 200); err != nil {
		t.Fatalf("unperturbed differential failed: %v", err)
	}
	defer func() { oracleRevenue = auction.Revenue }()
	oracleRevenue = func(bids []float64, p float64) float64 {
		allEqual := true
		for _, b := range bids {
			allEqual = allEqual && b == bids[0]
		}
		if allEqual && p == cfg.Candidates[2] && bids[0] >= p {
			return p * float64(len(bids)-1)
		}
		return auction.Revenue(bids, p)
	}
	err := runDifferential(cfg, 200)
	if err == nil {
		t.Fatal("differential did not notice a mis-scored closed-form revenue")
	}
	if !strings.Contains(err.Error(), "ComputeWaitPeriod") {
		t.Fatalf("canary tripped the wrong check: %v", err)
	}
	t.Logf("canary tripped: %v", err)
}
