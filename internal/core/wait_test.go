package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/rng"
)

// This file holds the wait an engine assigns to the oracle's
// (oracleComputeWaitPeriod) on the states where leadRounds prunes
// hardest or where its shortcuts could slip: engines taught long enough
// that most weights are subnormal, weights that tie a floor candidate
// with the leader, zeros, a maximum next to 1e-6 or 1e6 that round one
// rescales, a bid floor inside the grid with probes below it (the
// general replay's share), and a shuffled grid. Only the wait is
// compared: leadRounds leaves no weight vector to compare.

// waitCase is one engine state the wait differential probes.
type waitCase struct {
	Seed                  uint64
	Kind                  int // an index into waitKinds
	K, EpochSize, MaxWait int
	Stable, Shuffled      bool
	MinBid, Eta           float64
}

// waitKinds names how a case's weights are made: taught by that many
// Normal(100, 30) bids, or restored from a snapshot whose weights are
// drawn as the crafted kinds below say.
var waitKinds = []string{"taught375", "taught3000", "taught20000", "tie", "zeros", "peak1e-6", "peak1e6"}

func (c waitCase) String() string {
	return fmt.Sprintf("%s/seed%d/K%d/E%d/cap%d/stable%v/shuffled%v/minbid%v/eta%v",
		waitKinds[c.Kind], c.Seed, c.K, c.EpochSize, c.MaxWait, c.Stable, c.Shuffled, c.MinBid, c.Eta)
}

// engine builds the case's engine: a grid of K candidates on [1, 200],
// ascending or shuffled, then taught or restored with crafted weights,
// a live epoch of up to E-1 bids and a posting price drawn from the grid.
func (c waitCase) engine() (*Engine, error) {
	r := rng.New(c.Seed)
	cands := auction.LinearGrid(1, 200, c.K)
	if c.Shuffled {
		rng.Shuffle(r, cands)
	}
	cfg := Config{Candidates: cands, EpochSize: c.EpochSize, MaxWaitEpochs: c.MaxWait,
		MinBid: c.MinBid, Eta: c.Eta, BidsPerPeriod: 1, Seed: c.Seed}
	if c.Stable {
		cfg.Wait = WaitStable
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if taught := []int{375, 3000, 20000}; c.Kind < len(taught) {
		for range taught[c.Kind] {
			e.Observe(normalBid(r)) // SubmitBid's learning, without its waits
		}
		return e, nil
	}
	s := e.Snapshot()
	w := s.Learner.Weights
	floor := slices.Index(cands, slices.Min(cands))
	lead := (floor + 1 + r.Intn(c.K-1)) % c.K
	for i := range w {
		w[i] = r.Uniform(0, 0.9)
	}
	switch waitKinds[c.Kind] {
	case "tie":
		// 1.5^k is exact for k <= 33, and so is every product the floor
		// takes on its way there at eta 0.5: a gain of 1.5 a round (cost
		// -1) brings it onto the leader's weight exactly, after j rounds
		// (j = 0 ties now).
		k := 1 + r.Intn(12)
		j := r.Intn(k + 1)
		w[lead], w[floor] = math.Pow(1.5, float64(k)), math.Pow(1.5, float64(k-j))
	case "zeros":
		for i := range w {
			switch r.Intn(3) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = r.Uniform(0, 1) * 0x1p-1040 // subnormal
			}
		}
		w[lead] = 1
	case "peak1e-6":
		for i := range w {
			w[i] *= 1e-6
		}
		w[lead] = math.Nextafter(1e-6, 1) * (1 + r.Uniform(0, 0.4))
	case "peak1e6":
		for i := range w {
			w[i] *= 1e6
		}
		w[lead] = math.Nextafter(1e6, 0) / (1 + r.Uniform(0, 0.4))
	}
	s.Price = cands[r.Intn(c.K)]
	s.Epoch = s.Epoch[:0]
	for range r.Intn(c.EpochSize) {
		s.Epoch = append(s.Epoch, normalBid(r))
	}
	return RestoreSnapshot(s)
}

// probes are the bids a case's wait is asked for: below, on and between
// every candidate, above the grid, and just below the bid floor.
func probes(e *Engine) []float64 {
	cands := slices.Sorted(slices.Values(e.cfg.Candidates))
	out := []float64{cands[0] / 2, cands[len(cands)-1] * 1.5, math.Nextafter(e.cfg.MinBid, 0)}
	for i, p := range cands {
		out = append(out, p)
		if i+1 < len(cands) {
			out = append(out, (p+cands[i+1])/2)
		}
	}
	return out
}

// check builds the case's engine and compares its wait with the
// oracle's at every probe, naming the first difference.
func (c waitCase) check() error {
	e, err := c.engine()
	if err != nil {
		return fmt.Errorf("building the engine: %w", err)
	}
	for _, b := range probes(e) {
		got := e.ComputeWaitPeriod(b)
		if want, _, _ := oracleComputeWaitPeriod(e, b); got != want {
			return fmt.Errorf("ComputeWaitPeriod(%v) = %d, oracle %d (fill %d)", b, got, want, len(e.epoch))
		}
	}
	return nil
}

// waitTable is TestWaitMatchesOracle's matrix, and the fuzz target's
// seeds: every kind x E in {1, 8, 16} x cap in {1, 64, 300} x Bound and
// Stable, on marketd's 40 candidates at eta 0.5; the grid is shuffled on
// even seeds and the bid floor is inside it (57) on every third.
func waitTable() []waitCase {
	var out []waitCase
	for kind := range waitKinds {
		for _, size := range []int{1, 8, 16} {
			for _, maxWait := range []int{1, 64, 300} {
				for _, stable := range []bool{false, true} {
					seed := uint64(len(out) + 1)
					minBid := 1.0
					if seed%3 == 0 {
						minBid = 57
					}
					out = append(out, waitCase{Seed: seed, Kind: kind, K: 40, EpochSize: size, MaxWait: maxWait,
						Stable: stable, Shuffled: seed%2 == 0, MinBid: minBid, Eta: 0.5})
				}
			}
		}
	}
	return out
}

func TestWaitMatchesOracle(t *testing.T) {
	for _, c := range waitTable() {
		if err := c.check(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

// FuzzWaitMatchesOracle runs the same differential on fuzzed states: K
// in [2, 40], E in [1, 16], a cap in [1, 300], any bid floor in [0, 250]
// and eta in (0, 0.5]; out-of-range floors and rates fall back to 1 and
// 0.5.
func FuzzWaitMatchesOracle(f *testing.F) {
	for _, c := range waitTable() {
		f.Add(c.Seed, uint8(c.Kind), uint8(c.K), uint8(c.EpochSize), uint16(c.MaxWait), c.Stable, c.Shuffled, c.MinBid, c.Eta)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind, k, size uint8, maxWait uint16, stable, shuffled bool, minBid, eta float64) {
		c := waitCase{Seed: seed, Kind: int(kind) % len(waitKinds), K: 2 + int(k-2)%39, EpochSize: 1 + int(size-1)%16,
			MaxWait: 1 + int(maxWait-1)%300, Stable: stable, Shuffled: shuffled, MinBid: minBid, Eta: eta}
		if !(minBid >= 0 && minBid <= 250) {
			c.MinBid = 1
		}
		if !(eta > 0 && eta <= 0.5) {
			c.Eta = 0.5
		}
		if err := c.check(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}

// requireTrip runs the table until a case fails and requires that it
// failed on the wait comparison.
func requireTrip(t *testing.T, what string) {
	t.Helper()
	for _, c := range waitTable() {
		if err := c.check(); err != nil {
			if !strings.Contains(err.Error(), "ComputeWaitPeriod") {
				t.Fatalf("canary tripped the wrong check: %v: %v", c, err)
			}
			t.Logf("canary tripped: %v: %v", c, err)
			return
		}
	}
	t.Fatalf("the wait differential did not notice %s", what)
}

// TestWaitPruneCanary: scoring round one's contenders against a factor
// bound of 1 instead of 1+eta skips an expert that a gain carries past
// the best weight scored, so leadRounds plays against the wrong leader.
func TestWaitPruneCanary(t *testing.T) {
	defer func(c float64) { pruneCost = c }(pruneCost)
	pruneCost = 0
	requireTrip(t, "contenders pruned with a factor bound of 1")
}

// TestWaitTieBreakCanary: an expert of M that lands exactly on the
// leader's weight leads if and only if its index is lower (ArgMax's
// rule); breaking the tie toward the higher index must trip the
// differential on the tie states.
func TestWaitTieBreakCanary(t *testing.T) {
	defer func(f func(i, j int) bool) { leadsTie = f }(leadsTie)
	leadsTie = func(i, j int) bool { return i > j }
	requireTrip(t, "ties broken toward the higher index")
}
