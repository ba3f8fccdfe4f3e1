package mw

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/datamarket/shield/internal/rng"
)

func newTestLearner(t *testing.T, n int) *Learner {
	t.Helper()
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i + 1)
	}
	return NewLearner(values, 0.3)
}

func TestNewLearnerInitialState(t *testing.T) {
	l := newTestLearner(t, 4)
	if l.Len() != 4 || l.Rounds() != 0 {
		t.Fatalf("Len/Rounds = %d/%d", l.Len(), l.Rounds())
	}
	for i, w := range l.Weights() {
		if w != 1 {
			t.Errorf("weight[%d] = %v, want 1", i, w)
		}
	}
	probs := l.Probabilities()
	for _, p := range probs {
		if math.Abs(p-0.25) > 1e-12 {
			t.Errorf("initial probabilities not uniform: %v", probs)
		}
	}
}

func TestNewLearnerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":   func() { NewLearner(nil, 0.3) },
		"eta=0":   func() { NewLearner([]float64{1}, 0) },
		"eta>0.5": func() { NewLearner([]float64{1}, 0.6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUpdateDirection(t *testing.T) {
	l := newTestLearner(t, 2)
	// Expert 0 incurs cost, expert 1 gains.
	l.Update([]float64{1, -1}, 0)
	w := l.Weights()
	if !(w[0] < w[1]) {
		t.Fatalf("cost did not shrink weight: %v", w)
	}
	// Exact factors: (1-0.3)^1 = 0.7 and (1+0.3)^1 = 1.3, then
	// renormalized so max = 1 only if out of range; 1.3 is in range.
	if math.Abs(w[0]-0.7) > 1e-12 || math.Abs(w[1]-1.3) > 1e-12 {
		t.Errorf("weights = %v, want [0.7, 1.3]", w)
	}
}

func TestUpdateZeroCostKeepsWeight(t *testing.T) {
	l := newTestLearner(t, 3)
	l.Update([]float64{0, 0, 0}, 0)
	for i, w := range l.Weights() {
		if w != 1 {
			t.Errorf("weight[%d] = %v after zero-cost round", i, w)
		}
	}
}

func TestUpdatePanics(t *testing.T) {
	l := newTestLearner(t, 2)
	for name, costs := range map[string][]float64{
		"len mismatch": {1},
		"cost>1":       {2, 0},
		"cost<-1":      {0, -2},
		"NaN":          {math.NaN(), 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			l.Update(costs, 0)
		}()
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	r := rng.New(5)
	l := newTestLearner(t, 7)
	f := func(seed uint64) bool {
		costs := make([]float64, 7)
		for i := range costs {
			costs[i] = r.Uniform(-1, 1)
		}
		l.Update(costs, 0)
		var sum float64
		for _, p := range l.Probabilities() {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNoUnderflowOverLongRuns(t *testing.T) {
	l := newTestLearner(t, 3)
	// Punish expert 0 relentlessly for many rounds; weights must stay
	// finite and positive, probabilities valid.
	for i := 0; i < 100000; i++ {
		l.Update([]float64{1, 0, -1}, 0)
	}
	for i, w := range l.Weights() {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("weight[%d] = %v after long run", i, w)
		}
	}
	probs := l.Probabilities()
	if probs[0] > 1e-12 {
		t.Errorf("punished expert kept probability %v", probs[0])
	}
	if math.Abs(probs[2]-1) > 1e-6 {
		t.Errorf("rewarded expert probability %v, want ~1", probs[2])
	}
}

// TestZeroWeightRoundTrips: a factor of exactly 1-eta = 0.5 rounds the
// smallest subnormal weight to 0, and the learner that reaches that
// state snapshots and restores to itself, and both go on alike.
func TestZeroWeightRoundTrips(t *testing.T) {
	l := NewLearner([]float64{1, 2, 3}, 0.5)
	for l.Weights()[0] != 0 {
		l.Update([]float64{1, 0, 0}, 0)
	}
	r, err := Restore(l.Snapshot())
	if err != nil {
		t.Fatalf("restoring a state Update reached: %v", err)
	}
	for i := 0; i < 3; i++ {
		l.Update([]float64{0, 1, 0}, 0)
		r.Update([]float64{0, 1, 0}, 0)
	}
	if got, want := r.Snapshot(), l.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored learner went on to %+v, the original to %+v", got, want)
	}
}

func TestDrawFollowsWeights(t *testing.T) {
	l := newTestLearner(t, 2)
	// Push expert 1 to dominate.
	for i := 0; i < 20; i++ {
		l.Update([]float64{1, -1}, 0)
	}
	r := rng.New(9)
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[l.Draw(r)]++
	}
	if counts[1] < 9900 {
		t.Errorf("dominant expert drawn %d/10000", counts[1])
	}
}

func TestDrawValueReturnsExpertValue(t *testing.T) {
	l := NewLearner([]float64{3.5, 7.25}, 0.3)
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		v := l.DrawValue(r)
		if v != 3.5 && v != 7.25 {
			t.Fatalf("DrawValue = %v", v)
		}
	}
}

func TestArgMax(t *testing.T) {
	l := newTestLearner(t, 3)
	l.Update([]float64{0.5, -1, 0}, 0)
	if got := l.ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	// Ties break toward lower index.
	l2 := newTestLearner(t, 3)
	if got := l2.ArgMax(); got != 0 {
		t.Errorf("ArgMax on uniform = %d, want 0", got)
	}
}

func TestRegretBoundHolds(t *testing.T) {
	// Adversarial-ish random costs: expected regret of the sampled play
	// must stay within the AHK bound. We use the expected incurred cost
	// (sum p_i c_i) to avoid sampling noise in the test.
	r := rng.New(17)
	const n, T = 10, 2000
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	l := NewLearner(values, OptimalEta(n, T))
	for round := 0; round < T; round++ {
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = r.Uniform(-1, 1)
		}
		probs := l.Probabilities()
		var expected float64
		for i := range costs {
			expected += probs[i] * costs[i]
		}
		l.Update(costs, expected)
	}
	if reg, bound := l.Regret(), l.RegretBound(); reg > bound {
		t.Errorf("regret %v exceeds bound %v", reg, bound)
	}
}

func TestRegretConvergesToBestExpert(t *testing.T) {
	// One expert is strictly better; MW must concentrate on it.
	r := rng.New(23)
	l := NewLearner([]float64{0, 1, 2, 3}, 0.2)
	for round := 0; round < 3000; round++ {
		costs := make([]float64, 4)
		for i := range costs {
			if i == 2 {
				costs[i] = r.Uniform(-1, -0.5) // expert 2 always gains
			} else {
				costs[i] = r.Uniform(0, 1)
			}
		}
		probs := l.Probabilities()
		var expected float64
		for i := range costs {
			expected += probs[i] * costs[i]
		}
		l.Update(costs, expected)
	}
	if p := l.Probabilities()[2]; p < 0.999 {
		t.Errorf("best expert probability %v, want ~1", p)
	}
}

func TestOptimalEta(t *testing.T) {
	if eta := OptimalEta(10, 100); eta <= 0 || eta > 0.5 {
		t.Errorf("OptimalEta = %v", eta)
	}
	// Tiny horizon clamps at 0.5.
	if eta := OptimalEta(100, 2); eta != 0.5 {
		t.Errorf("OptimalEta clamp = %v", eta)
	}
	// Degenerate inputs fall back to the default.
	if eta := OptimalEta(1, 100); eta != DefaultEta {
		t.Errorf("OptimalEta(1, _) = %v", eta)
	}
	if eta := OptimalEta(10, 0); eta != DefaultEta {
		t.Errorf("OptimalEta(_, 0) = %v", eta)
	}
}

// referenceUpdate is the pre-kernel Learner.Update body (expert-struct
// weights, update and regret accounting in one loop), kept as the
// oracle TestStepMatchesReference and FuzzRoundMatchesStep hold Update
// and the prepared round to.
func referenceUpdate(weights, cumCost, costs []float64, eta, share float64) {
	type expert struct{ Weight float64 }
	experts := make([]expert, len(weights))
	for i, w := range weights {
		experts[i].Weight = w
	}
	for i, c := range costs {
		if c > 1 {
			c = 1
		}
		if c < -1 {
			c = -1
		}
		if c >= 0 {
			experts[i].Weight *= math.Pow(1-eta, c)
		} else {
			experts[i].Weight *= math.Pow(1+eta, -c)
		}
		cumCost[i] += c
	}
	if share > 0 {
		var total float64
		for _, e := range experts {
			total += e.Weight
		}
		mix := share * total / float64(len(experts))
		for i := range experts {
			experts[i].Weight = (1-share)*experts[i].Weight + mix
		}
	}
	maxW := 0.0
	for _, e := range experts {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	switch {
	case maxW <= 0 || math.IsInf(maxW, 1):
		for i := range experts {
			experts[i].Weight = 1
		}
	case maxW > 1e-6 && maxW < 1e6:
	default:
		for i := range experts {
			experts[i].Weight /= maxW
		}
	}
	for i, e := range experts {
		weights[i] = e.Weight
	}
}

// stepDifferential drives l's Update, a prepared round on a bare copy of
// its weights and the reference through the same long cost sequences —
// long enough for the rescale branch to fire — and returns the first
// round where any of the three differ in a bit, or where Apply's index is
// not ArgMax's. Halfway through, l is replaced by a learner rebuilt with
// Restore from its own snapshot, so the derived powers of 1-eta and 1+eta
// are checked as a restore recomputes them.
func stepDifferential(l *Learner, seed uint64) error {
	r := rng.New(seed)
	n := l.Len()
	bare := l.Weights()
	ref, refCum := l.Weights(), l.Snapshot().CumCost
	costs, factors := make([]float64, n), make([]float64, n)
	var prep Round
	const rounds = 2000
	rescaled := false
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			restored, err := Restore(l.Snapshot())
			if err != nil {
				return err
			}
			l = restored
		}
		before := ref[ArgMax(ref)]
		for i := range costs {
			switch r.Intn(4) {
			case 0:
				costs[i] = 0
			case 1:
				costs[i] = float64(r.Intn(3)-1) * 0.5 * float64(1+r.Intn(2)) // -1, -0.5, 0, 0.5, 1: the special cases
			default:
				// Mostly losses: every weight decays, so the
				// maximum leaves [1e-6, 1e6] and the rescale fires.
				costs[i] = r.Uniform(-0.3, 1)
			}
		}
		l.Update(costs, 0)
		copy(factors, costs)
		l.Prepare(&prep, bare, factors)
		best := l.Apply(&prep, bare)
		referenceUpdate(ref, refCum, costs, l.Eta(), l.Share())
		// No single round grows a weight by more than 1+eta.
		rescaled = rescaled || ref[ArgMax(ref)] > before*(1+l.Eta())
		got, cum := l.Weights(), l.Snapshot().CumCost
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) ||
				math.Float64bits(bare[i]) != math.Float64bits(ref[i]) {
				return fmt.Errorf("round %d: weight[%d]: Update %v, Apply %v, reference %v",
					round, i, got[i], bare[i], ref[i])
			}
			if math.Float64bits(cum[i]) != math.Float64bits(refCum[i]) {
				return fmt.Errorf("round %d: cumCost[%d] = %v, reference %v", round, i, cum[i], refCum[i])
			}
		}
		if want := ArgMax(ref); best != want {
			return fmt.Errorf("round %d: Apply returned %d, ArgMax %d", round, best, want)
		}
	}
	if !rescaled {
		return errors.New("the rescale branch never fired")
	}
	return nil
}

// TestStepMatchesReference holds Update and a prepared round to the
// pre-kernel update (math.Pow per expert) bit for bit, at the default
// learning rate and two others, with and without fixed-share mixing,
// across a snapshot-and-restore.
func TestStepMatchesReference(t *testing.T) {
	for _, eta := range []float64{DefaultEta, 0.3, 0.1} {
		for _, share := range []float64{0, 0.05} {
			for seed := uint64(1); seed <= 4; seed++ {
				l := NewLearner(make([]float64, 12), eta)
				l.SetShare(share)
				if err := stepDifferential(l, seed); err != nil {
					t.Fatalf("eta %v share %v seed %d: %v", eta, share, seed, err)
				}
			}
		}
	}
}

// TestStepDifferentialCanary is the differential's mutation canary: a
// learner whose shrink base was built for a learning rate 1e-9 off its
// own must trip the weight comparison.
func TestStepDifferentialCanary(t *testing.T) {
	l := NewLearner(make([]float64, 12), 0.3)
	l.down = newPowBase(1 - (0.3 + 1e-9))
	err := stepDifferential(l, 1)
	if err == nil || !strings.Contains(err.Error(), "weight[") {
		t.Fatalf("a base for the wrong eta was not caught by the weight check: %v", err)
	}
	t.Logf("canary tripped: %v", err)
}

// powEtas are the learning rates the pow kernel is held to math.Pow at:
// the default, just under it, the optimal rate of the paper's 40-candidate,
// 250-bid setting, and a spread down to 0.01.
func powEtas() []float64 {
	return []float64{DefaultEta, 0.49999, 0.3333, 0.25, 0.1, 0.01, OptimalEta(40, 250)}
}

// powMismatch compares powBase against math.Pow at both of eta's bases.
func powMismatch(eta, y float64) error {
	for _, x := range []float64{1 - eta, 1 + eta} {
		b := newPowBase(x)
		if got, want := b.pow(y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("eta %v: pow(%v, %v) = %v (%#x), math.Pow %v (%#x)",
				eta, x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return nil
}

// TestPowMatchesMathPow is the guard on the kernel's premise: for every
// exponent the update can ask for, powBase.pow is math.Pow bit for bit.
// It fails first if a Go release changes pow.go's steps.
func TestPowMatchesMathPow(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, math.Nextafter(0.5, 0), 0.5,
		math.Nextafter(0.5, 1), math.Nextafter(1, 0), 1}
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	r := rng.New(29)
	ys := make([]float64, 0, len(edges)+n)
	ys = append(ys, edges...)
	for i := 0; i < n; i++ {
		y := r.Float64()
		if i%2 == 1 {
			y = math.Ldexp(y, -r.Intn(60)) // small exponents, down to 2^-60
		}
		ys = append(ys, y)
	}
	for _, eta := range powEtas() {
		for _, y := range ys {
			if err := powMismatch(eta, y); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzPowMatchesMathPow searches (eta, y) for a pair where the kernel and
// math.Pow part; inputs outside eta in (0, 0.5], y in [0, 1] are skipped.
func FuzzPowMatchesMathPow(f *testing.F) {
	for _, eta := range powEtas() {
		for _, y := range []float64{0, 0.25, 0.5, math.Nextafter(0.5, 1), 0.75, 1} {
			f.Add(eta, y)
		}
	}
	f.Fuzz(func(t *testing.T, eta, y float64) {
		if !(eta > 0 && eta <= 0.5) || !(y >= 0 && y <= 1) {
			t.Skip()
		}
		if err := powMismatch(eta, y); err != nil {
			t.Fatal(err)
		}
	})
}

// roundDifferential prepares costs once against weights and applies the
// round rounds times, holding every weight after every round to the
// per-round reference update by bits and every returned index to ArgMax.
func roundDifferential(l *Learner, weights, costs []float64, rounds int) error {
	ref := slices.Clone(weights)
	var r Round
	l.Prepare(&r, weights, slices.Clone(costs))
	for round := 0; round < rounds; round++ {
		best := l.Apply(&r, weights)
		referenceUpdate(ref, make([]float64, len(ref)), costs, l.Eta(), l.Share())
		for i := range ref {
			if math.Float64bits(weights[i]) != math.Float64bits(ref[i]) {
				return fmt.Errorf("round %d: weight[%d] = %v, reference %v", round, i, weights[i], ref[i])
			}
		}
		if want := ArgMax(ref); best != want {
			return fmt.Errorf("round %d: Apply returned %d, ArgMax %d", round, best, want)
		}
	}
	return nil
}

// roundInputs draws k weights — ties, and a level that puts the maximum
// near 1, 1e-6 or 1e6, where the next round rescales — and k costs in
// runs: zeros, the pow special cases, costs inside the validation slack,
// costs so small their factor rounds to exactly 1, and random ones.
func roundInputs(seed uint64, k int) (weights, costs []float64) {
	r := rng.New(seed)
	level := []float64{1, math.Nextafter(1e-6, 1) * 1.3, math.Nextafter(1e6, 0) / 1.3}[r.Intn(3)]
	weights, costs = make([]float64, k), make([]float64, 0, k)
	for i := range weights {
		switch r.Intn(4) {
		case 0:
			weights[i] = level
		case 1:
			if i > 0 {
				weights[i] = weights[i-1]
				break
			}
			fallthrough
		default:
			weights[i] = level * r.Uniform(0.25, 1)
		}
	}
	for len(costs) < k {
		var c float64
		switch r.Intn(6) {
		case 0:
			c = 0
		case 1:
			c = float64(r.Intn(5)-2) * 0.5 // -1, -0.5, 0, 0.5, 1
		case 2:
			c = float64(2*r.Intn(2)-1) * (1 + 5e-10)
		case 3:
			c = float64(2*r.Intn(2)-1) * 1e-20
		default:
			c = r.Uniform(-1, 1)
		}
		for n := 1 + r.Intn(8); n > 0 && len(costs) < k; n-- {
			costs = append(costs, c)
		}
	}
	return weights, costs
}

// FuzzRoundMatchesStep holds a prepared round, applied up to 64 times,
// to the reference update run round by round: K in [2, 64], eta in
// (0, 0.5], share 0 or any in [0, 1).
func FuzzRoundMatchesStep(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, share := range []float64{0, 0.05} {
			f.Add(seed, uint8(38+seed), DefaultEta, share, uint8(63))
			f.Add(seed, uint8(seed), 0.1, share, uint8(8*seed))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, eta, share float64, rounds uint8) {
		if !(eta > 0 && eta <= 0.5) || !(share >= 0 && share < 1) {
			t.Skip()
		}
		l := NewLearner(make([]float64, 2+int(k)%63), eta)
		l.SetShare(share)
		weights, costs := roundInputs(seed, l.Len())
		if err := roundDifferential(l, weights, costs, 1+int(rounds)%64); err != nil {
			t.Fatalf("eta %v share %v costs %v: %v", eta, share, costs, err)
		}
	})
}

// TestBadCostChangesNothing: a cost vector with one bad entry past the
// first is refused whole — the weights before it are not multiplied, no
// regret account moves and Prepare turns no cost into a factor.
func TestBadCostChangesNothing(t *testing.T) {
	l := newTestLearner(t, 4)
	l.Update([]float64{0.5, -0.25, 1, 0}, 0.1)
	before, rounds, regret := l.Snapshot(), l.Rounds(), l.Regret()
	for k := 1; k < 4; k++ {
		for _, bad := range []float64{2, -2, math.NaN()} {
			costs := []float64{0.5, -0.25, 1, 0}
			costs[k] = bad
			scratch := l.Weights()
			var r Round
			for name, f := range map[string]func(){
				"Update":  func() { l.Update(costs, 0.3) },
				"Prepare": func() { l.Prepare(&r, scratch, costs) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s with cost[%d] = %v did not panic", name, k, bad)
						}
					}()
					f()
				}()
			}
			if costs[0] != 0.5 || r.factors != nil {
				t.Fatalf("cost[%d] = %v: Prepare wrote factors: costs %v", k, bad, costs)
			}
			after := l.Snapshot()
			if l.Rounds() != rounds || math.Float64bits(l.Regret()) != math.Float64bits(regret) {
				t.Fatalf("cost[%d] = %v: rounds %d regret %v moved", k, bad, l.Rounds(), l.Regret())
			}
			for i := range after.Weights {
				for _, got := range [][2]float64{
					{after.Weights[i], before.Weights[i]},
					{after.CumCost[i], before.CumCost[i]},
					{scratch[i], before.Weights[i]},
				} {
					if math.Float64bits(got[0]) != math.Float64bits(got[1]) {
						t.Fatalf("cost[%d] = %v: index %d moved: %v, was %v", k, bad, i, got[0], got[1])
					}
				}
			}
		}
	}
}

// TestHotPathAllocs pins the kernel's allocation contract: Update,
// Prepare, Apply, Draw and WeightsInto a large-enough buffer do not
// allocate.
func TestHotPathAllocs(t *testing.T) {
	l := newTestLearner(t, 16)
	l.SetShare(0.05)
	costs := make([]float64, 16)
	for i := range costs {
		costs[i] = float64(i%3-1) * 0.4
	}
	scratch, factors := make([]float64, 16), make([]float64, 16)
	r := rng.New(7)
	var round Round
	n := testing.AllocsPerRun(100, func() {
		l.Update(costs, 0)
		scratch = l.WeightsInto(scratch)
		copy(factors, costs)
		l.Prepare(&round, scratch, factors)
		_ = l.Apply(&round, scratch)
		_ = l.Draw(r)
		_ = ArgMax(scratch)
	})
	if n != 0 {
		t.Fatalf("Update+WeightsInto+Prepare+Apply+Draw allocate %.1f times per round, want 0", n)
	}
}

func TestReset(t *testing.T) {
	l := newTestLearner(t, 3)
	l.Update([]float64{1, 0, -1}, 0.5)
	l.Reset()
	if l.Rounds() != 0 || l.Regret() != 0 {
		t.Fatalf("Reset left rounds=%d regret=%v", l.Rounds(), l.Regret())
	}
	for _, w := range l.Weights() {
		if w != 1 {
			t.Fatalf("Reset weights = %v", l.Weights())
		}
	}
}

func TestAccessorsCopy(t *testing.T) {
	l := newTestLearner(t, 2)
	vs := l.Values()
	vs[0] = 999
	if l.Values()[0] == 999 {
		t.Fatal("Values() leaked internal state")
	}
	ws := l.Weights()
	ws[0] = 999
	if l.Weights()[0] == 999 {
		t.Fatal("Weights() leaked internal state")
	}
}

func TestValues(t *testing.T) {
	l := NewLearner([]float64{5, 10, 20}, 0.25)
	vs := l.Values()
	if len(vs) != 3 || vs[0] != 5 || vs[2] != 20 {
		t.Fatalf("Values = %v", vs)
	}
	if l.Eta() != 0.25 {
		t.Fatalf("Eta = %v", l.Eta())
	}
}

func BenchmarkUpdate(b *testing.B) {
	values := make([]float64, 50)
	for i := range values {
		values[i] = float64(i)
	}
	l := NewLearner(values, 0.3)
	costs := make([]float64, 50)
	for i := range costs {
		costs[i] = float64(i%3-1) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(costs, 0)
	}
}

func BenchmarkDraw(b *testing.B) {
	values := make([]float64, 50)
	for i := range values {
		values[i] = float64(i)
	}
	l := NewLearner(values, 0.3)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Draw(r)
	}
}

func TestFixedShareKeepsExplorationMass(t *testing.T) {
	plain := newTestLearner(t, 4)
	shared := newTestLearner(t, 4)
	shared.SetShare(0.05)
	if shared.Share() != 0.05 {
		t.Fatal("Share not recorded")
	}
	// Punish everyone but expert 0 for many rounds.
	costs := []float64{-1, 1, 1, 1}
	for i := 0; i < 200; i++ {
		plain.Update(costs, 0)
		shared.Update(costs, 0)
	}
	pPlain := plain.Probabilities()
	pShared := shared.Probabilities()
	// Plain MW starves the losers to ~0; fixed-share keeps a floor.
	for i := 1; i < 4; i++ {
		if pPlain[i] > 1e-9 {
			t.Fatalf("plain MW kept mass %v on loser %d", pPlain[i], i)
		}
		if pShared[i] < 0.005 {
			t.Fatalf("fixed-share starved loser %d to %v", i, pShared[i])
		}
	}
	if pShared[0] < 0.5 {
		t.Fatalf("fixed-share lost the winner: %v", pShared[0])
	}
}

func TestFixedShareTracksDrift(t *testing.T) {
	// The best expert switches halfway; fixed-share must recover much
	// faster than plain MW.
	recover := func(share float64) int {
		l := newTestLearner(t, 4)
		if share > 0 {
			l.SetShare(share)
		}
		reward := func(best int) {
			costs := make([]float64, 4)
			for i := range costs {
				if i == best {
					costs[i] = -1
				} else {
					costs[i] = 1
				}
			}
			l.Update(costs, 0)
		}
		for i := 0; i < 300; i++ {
			reward(0)
		}
		for i := 0; i < 300; i++ {
			reward(3)
			if l.ArgMax() == 3 {
				return i + 1
			}
		}
		return 301
	}
	plain := recover(0)
	shared := recover(0.05)
	if shared >= plain {
		t.Fatalf("fixed-share recovery %d not faster than plain %d", shared, plain)
	}
	if shared > 10 {
		t.Fatalf("fixed-share took %d rounds to switch", shared)
	}
}

func TestSetSharePanics(t *testing.T) {
	l := newTestLearner(t, 2)
	for _, s := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetShare(%v) did not panic", s)
				}
			}()
			l.SetShare(s)
		}()
	}
}

func TestLearnerSnapshotRoundTrip(t *testing.T) {
	l := newTestLearner(t, 5)
	l.SetShare(0.03)
	r := rng.New(31)
	for i := 0; i < 50; i++ {
		costs := make([]float64, 5)
		for j := range costs {
			costs[j] = r.Uniform(-1, 1)
		}
		l.Update(costs, 0.1)
	}
	snap := l.Snapshot()
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rounds() != l.Rounds() || restored.Share() != l.Share() ||
		restored.Eta() != l.Eta() || restored.Regret() != l.Regret() {
		t.Fatalf("metadata differs")
	}
	lp, rp := l.Probabilities(), restored.Probabilities()
	for i := range lp {
		if math.Abs(lp[i]-rp[i]) > 1e-12 {
			t.Fatalf("probability %d differs: %v vs %v", i, lp[i], rp[i])
		}
	}
	// Identical behavior afterwards.
	costs := []float64{1, -1, 0.5, -0.5, 0}
	l.Update(costs, 0)
	restored.Update(costs, 0)
	if l.ArgMax() != restored.ArgMax() {
		t.Fatal("post-restore update diverged")
	}
}

func TestLearnerRestoreValidation(t *testing.T) {
	good := newTestLearner(t, 3).Snapshot()
	cases := map[string]func(*Snapshot){
		"no values":    func(s *Snapshot) { s.Values = nil; s.Weights = nil; s.CumCost = nil },
		"len mismatch": func(s *Snapshot) { s.Weights = s.Weights[:1] },
		"bad eta":      func(s *Snapshot) { s.Eta = 0 },
		"bad share":    func(s *Snapshot) { s.Share = 1 },
		"neg rounds":   func(s *Snapshot) { s.Rounds = -1 },
		"cum mismatch": func(s *Snapshot) { s.CumCost = s.CumCost[:1] },
		"bad weight":   func(s *Snapshot) { s.Weights[0] = math.NaN() },
		"neg weight":   func(s *Snapshot) { s.Weights[0] = -1 },
		"inf weight":   func(s *Snapshot) { s.Weights[0] = math.Inf(1) },
		// A zero weight is not here: Update reaches one (see
		// TestZeroWeightRoundTrips), so Restore takes it.
		// A learner rescales its weights whenever the largest leaves
		// (1e-6, 1e6): restoring such a vector would rescale it and
		// re-snapshot to different bytes.
		"peak too high": func(s *Snapshot) { s.Weights[1] = 1e6 },
		"peak too low":  func(s *Snapshot) { s.Weights[0], s.Weights[1], s.Weights[2] = 1e-6, 1e-7, 1e-9 },
	}
	for name, mutate := range cases {
		s := good
		s.Values = append([]float64{}, good.Values...)
		s.Weights = append([]float64{}, good.Weights...)
		s.CumCost = append([]float64{}, good.CumCost...)
		mutate(&s)
		if _, err := Restore(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Restore(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}
