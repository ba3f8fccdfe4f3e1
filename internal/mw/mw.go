// Package mw implements the multiplicative weights update method
// (Arora, Hazan, Kale 2012) used by the paper's pricing algorithm: a set of
// experts with weights, costs in [-1, 1], the multiplicative update rule of
// Algorithm 1 lines 21-24, and sampling of an expert proportionally to its
// weight (the randomization Uncertainty-Shield requires).
//
// The regret guarantee the paper appeals to — expected cost not much worse
// than the best expert in hindsight — holds for learning rates eta in
// (0, 1/2]; see RegretBound.
//
// The update only raises 1-eta and 1+eta to powers in [0, 1], so a
// learner keeps both bases' logarithms and takes math.Pow's own steps
// (Go 1.24 src/math/pow.go) with them hoisted: the same bits, which every
// recorded price depends on, without a Log per factor. A Go release that
// changes those steps breaks the equality; TestPowMatchesMathPow says so.
package mw

import (
	"fmt"
	"math"
	"slices"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/rng"
)

// Learner runs the multiplicative weights method over a fixed expert set.
// It is not safe for concurrent use.
type Learner struct {
	// values and weights are parallel: expert i plays values[i] (for the
	// pricing algorithm, a candidate posting price) with multiplicative
	// weight weights[i]. The weights are a bare vector so a caller's
	// scratch copy takes the same rounds and ArgMax as the live weights.
	values   []float64
	weights  []float64
	eta      float64
	share    float64
	rounds   int
	down, up powBase // 1-eta and 1+eta

	// cumulative per-expert cost, for regret accounting.
	cumCost []float64
	// cumulative cost actually incurred (expected under draws).
	cumIncurred float64
}

// SetShare enables fixed-share mixing (Herbster-Warmuth): after every
// update a fraction share of the total weight is redistributed uniformly,
// which bounds how concentrated the distribution can get and lets the
// learner track a drifting best expert instead of committing forever to
// a stale one. share must lie in [0, 1); 0 disables mixing (plain MW).
func (l *Learner) SetShare(share float64) {
	if share < 0 || share >= 1 {
		panic(fmt.Sprintf("mw: share %v outside [0, 1)", share))
	}
	l.share = share
}

// Share returns the fixed-share mixing fraction.
func (l *Learner) Share() float64 { return l.share }

// DefaultEta is a conservative default learning rate; the AHK analysis
// requires eta <= 1/2.
const DefaultEta = 0.5

// NewLearner builds a learner with one expert per value, all weights 1
// (Algorithm 1 line 1). It panics on an empty value set or eta outside
// (0, 0.5].
func NewLearner(values []float64, eta float64) *Learner {
	return newLearner(values, nil, eta)
}

// NewLearnerWithWeights builds a learner with explicit initial weights —
// used when an adaptive candidate grid transfers learned mass onto a new
// expert set. Weights must be non-negative and finite; regret accounting
// starts fresh. It panics on invalid input.
func NewLearnerWithWeights(values, weights []float64, eta float64) *Learner {
	if len(weights) != len(values) {
		panic(fmt.Sprintf("mw: %d weights for %d experts", len(weights), len(values)))
	}
	return newLearner(values, weights, eta)
}

// newLearner builds a learner over copies of values and weights (nil
// for all 1), cut from one block with every piece's capacity capped.
func newLearner(values, weights []float64, eta float64) *Learner {
	if len(values) == 0 {
		panic("mw: NewLearner with no experts")
	}
	if eta <= 0 || eta > 0.5 {
		panic(fmt.Sprintf("mw: eta %v outside (0, 0.5]", eta))
	}
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("mw: weight[%d] = %v must be non-negative and finite", i, w))
		}
	}
	k := len(values)
	buf := make([]float64, 3*k)
	l := &Learner{
		values:  buf[:k:k],
		weights: buf[k : 2*k : 2*k],
		eta:     eta,
		down:    newPowBase(1 - eta),
		up:      newPowBase(1 + eta),
		cumCost: buf[2*k:],
	}
	copy(l.values, values)
	copy(l.weights, weights)
	if weights == nil {
		l.Reset() // every weight 1
	}
	l.settle(l.weights) // no share yet: the rescale alone
	return l
}

// Len returns the number of experts.
func (l *Learner) Len() int { return len(l.weights) }

// Eta returns the learning rate.
func (l *Learner) Eta() float64 { return l.eta }

// Rounds returns how many Update calls have been applied.
func (l *Learner) Rounds() int { return l.rounds }

// Values returns the expert values in order.
func (l *Learner) Values() []float64 { return slices.Clone(l.values) }

// Weights returns a copy of the current weights.
func (l *Learner) Weights() []float64 { return l.WeightsInto(nil) }

// WeightsInto copies the current weights into dst's storage (grown if
// too small) and returns the copy: a caller that replays hypothetical
// rounds with Prepare and Apply keeps one scratch vector instead of a
// fresh copy per replay.
func (l *Learner) WeightsInto(dst []float64) []float64 { return append(dst[:0], l.weights...) }

// Probabilities returns the current weight distribution normalized to sum
// to one.
func (l *Learner) Probabilities() []float64 {
	out := make([]float64, len(l.weights))
	var total float64
	for _, w := range l.weights {
		total += w
	}
	if total <= 0 {
		// Degenerate (should not happen with costs in [-1,1]); fall back
		// to uniform so sampling remains well defined.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, w := range l.weights {
		out[i] = w / total
	}
	return out
}

// Draw samples an expert index proportionally to the weights — the
// randomized selection rule that implements Uncertainty-Shield while
// preserving the MW guarantee (Algorithm 1 line 25).
func (l *Learner) Draw(r *rng.RNG) int {
	return r.WeightedIndex(l.weights)
}

// DrawValue samples an expert and returns its value.
func (l *Learner) DrawValue(r *rng.RNG) float64 {
	return l.values[l.Draw(r)]
}

// ArgMax returns the index of the highest-weight expert (ties break toward
// the lower index). This is the deterministic MW-Max selection rule of
// Figure 4a, which forgoes Uncertainty-Shield.
func (l *Learner) ArgMax() int { return ArgMax(l.weights) }

// ArgMax returns the index of the largest weight (ties break toward the
// lower index).
func ArgMax(weights []float64) int {
	best := 0
	for i, w := range weights {
		if w > weights[best] {
			best = i
		}
	}
	return best
}

// Update applies Algorithm 1 lines 21-24 to the learner's weights — a
// cost c shrinks a weight by (1-eta)^c, a gain -c grows it by (1+eta)^c —
// then settles them (mixing, rescale), adding each cost to its expert's
// regret account in the same pass. incurred is the cost of the expert
// actually played this round (used only for regret accounting; pass 0 if
// not tracking regret). Update panics, changing nothing, if the cost
// vector length mismatches or any cost falls outside [-1, 1].
func (l *Learner) Update(costs []float64, incurred float64) {
	weights, cum := l.weights, l.cumCost
	checkCosts(weights, costs)
	// Runs of equal costs are the common case — every candidate priced
	// above an epoch's highest bid earns nothing and so costs the same —
	// so a cost with the previous one's bits reuses its clamp and factor.
	last, y, factor := math.Float64bits(math.NaN()), 0.0, 0.0
	for i, c := range costs {
		if bits := math.Float64bits(c); bits != last {
			last, y = bits, clampCost(c)
			factor = l.factor(y)
		}
		weights[i] *= factor
		cum[i] += y
	}
	l.settle(weights)
	l.cumIncurred += incurred
	l.rounds++
}

// settle ends a round whose weights are multiplied: fixed-share mixing
// (see SetShare), then, if the maximum has left [1e-6, 1e6], a rescale to
// 1 against under- or overflow, which leaves the distribution as it was.
func (l *Learner) settle(weights []float64) {
	if share := l.share; share > 0 {
		var total float64
		for _, w := range weights {
			total += w
		}
		mix := share * total / float64(len(weights))
		for i := range weights {
			weights[i] = (1-share)*weights[i] + mix
		}
	}
	maxW := 0.0
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 1e-6 && maxW < 1e6 {
		return
	}
	for i := range weights {
		if maxW <= 0 || math.IsInf(maxW, 1) {
			weights[i] = 1 // degenerate: uniform as a last resort
		} else {
			weights[i] /= maxW
		}
	}
}

// Round is a cost vector prepared for a scratch weight vector that takes
// it again and again, as the Time-Shield wait replay's rounds do.
type Round struct {
	factors []float64
	n       int     // every factor past the first n is exactly 1
	max     float64 // the largest weight whose factor is 1, -1 if none,
	best    int     // and its first index
}

// Prepare turns costs, in place, into the factors Update would multiply
// weights by and records them in r; it panics as Update does.
func (l *Learner) Prepare(r *Round, weights, costs []float64) {
	checkCosts(weights, costs)
	last, factor := math.Float64bits(math.NaN()), 0.0
	for i, c := range costs {
		if bits := math.Float64bits(c); bits != last {
			last, factor = bits, l.factor(clampCost(c))
		}
		costs[i] = factor
	}
	r.factors = costs
	r.cache(weights)
}

// Apply runs r on the weights it was prepared against, giving each
// Update's bits, and returns ArgMax of the result. Unmixed, it multiplies
// only factors other than 1 (x*1 == x) and takes the better of their and
// the cached maximum, ties to the lower index; a rescale recaches.
func (l *Learner) Apply(r *Round, weights []float64) int {
	if l.share > 0 {
		for i, f := range r.factors {
			weights[i] *= f
		}
		l.settle(weights)
		return ArgMax(weights)
	}
	maxW, best := r.max, r.best
	for i, f := range r.factors[:r.n] {
		if f != 1 {
			w := weights[i] * f
			weights[i] = w
			if w > maxW || (w == maxW && i < best) {
				maxW, best = w, i
			}
		}
	}
	if maxW > 1e-6 && maxW < 1e6 {
		return best
	}
	l.settle(weights) // unmixed: the rescale alone
	r.cache(weights)
	return ArgMax(weights)
}

// cache records where the factors other than 1 end and the largest of
// the other experts' weights.
func (r *Round) cache(weights []float64) {
	r.n, r.max, r.best = 0, -1, -1
	for i, f := range r.factors {
		if f != 1 {
			r.n = i + 1
		} else if weights[i] > r.max {
			r.max, r.best = weights[i], i
		}
	}
}

// checkCosts panics unless costs holds one cost in [-1, 1] per weight.
func checkCosts(weights, costs []float64) {
	if len(costs) != len(weights) {
		panic(fmt.Sprintf("mw: %d costs for %d experts", len(costs), len(weights)))
	}
	for i, c := range costs {
		if !(c >= -1-1e-9 && c <= 1+1e-9) { // NaN too
			panic(fmt.Sprintf("mw: cost[%d] = %v outside [-1, 1]", i, c))
		}
	}
}

// factor is (1-eta)^y for a clamped loss y >= 0, (1+eta)^-y for a gain.
func (l *Learner) factor(y float64) float64 {
	b := &l.down
	if y < 0 {
		b, y = &l.up, -y
	}
	return b.pow(y)
}

// powBase is math.Pow(x, y) for one x in [0.5, 1.5] and y in [0, 1],
// bit for bit: pow.go's special cases, then for y > 0.5 its yf = y-1,
// yi = 1 branch, Ldexp(Exp(yf*Log(x))*x1, xe) with x1, xe = Frexp(x),
// else Ldexp(Exp(y*Log(x)), 0). Near 1 a power-of-two scaling is exact
// and commutes with rounding, so those are Exp(yf*Log(x))*x and
// Exp(y*Log(x)).
type powBase struct{ x, ln, sqrt float64 }

func newPowBase(x float64) powBase {
	return powBase{x: x, ln: math.Log(x), sqrt: math.Sqrt(x)}
}

func (b *powBase) pow(y float64) float64 {
	switch {
	case y == 0: // and -0
		return 1
	case y == 1:
		return b.x
	case y == 0.5:
		return b.sqrt
	case y > 0.5:
		return math.Exp((y-1)*b.ln) * b.x
	}
	return math.Exp(y * b.ln)
}

// clampCost pulls a cost inside checkCosts' 1e-9 validation slack back onto
// [-1, 1].
func clampCost(c float64) float64 { return max(-1, min(1, c)) }

// BestExpertCumCost returns the minimum cumulative cost across experts —
// the best expert in hindsight.
func (l *Learner) BestExpertCumCost() float64 {
	if len(l.cumCost) == 0 {
		return 0
	}
	best := l.cumCost[0]
	for _, c := range l.cumCost[1:] {
		if c < best {
			best = c
		}
	}
	return best
}

// Regret returns the cumulative incurred cost minus the best expert's
// cumulative cost.
func (l *Learner) Regret() float64 {
	return l.cumIncurred - l.BestExpertCumCost()
}

// RegretBound returns the Arora-Hazan-Kale bound on expected regret after
// the learner's rounds: eta*T + ln(n)/eta, valid for costs in [-1, 1].
func (l *Learner) RegretBound() float64 {
	return l.eta*float64(l.rounds) + math.Log(float64(len(l.weights)))/l.eta
}

// OptimalEta returns the learning rate minimizing the regret bound for a
// horizon of T rounds over n experts: sqrt(ln n / T), clamped to (0, 0.5].
func OptimalEta(n, T int) float64 {
	if n < 2 || T < 1 {
		return DefaultEta
	}
	eta := math.Sqrt(math.Log(float64(n)) / float64(T))
	if eta > 0.5 {
		return 0.5
	}
	if eta <= 0 {
		return DefaultEta
	}
	return eta
}

// Snapshot is the learner's full serializable state.
type Snapshot struct {
	Values      []float64 `json:"values"`
	Weights     []float64 `json:"weights"`
	Eta         float64   `json:"eta"`
	Share       float64   `json:"share,omitempty"`
	Rounds      int       `json:"rounds"`
	CumCost     []float64 `json:"cum_cost"`
	CumIncurred float64   `json:"cum_incurred"`
}

// Snapshot captures the learner state for serialization.
func (l *Learner) Snapshot() Snapshot {
	s := Snapshot{
		Values:      l.Values(),
		Weights:     l.Weights(),
		Eta:         l.eta,
		Share:       l.share,
		Rounds:      l.rounds,
		CumCost:     make([]float64, len(l.cumCost)),
		CumIncurred: l.cumIncurred,
	}
	copy(s.CumCost, l.cumCost)
	return s
}

// Binary walks the snapshot's fields for the binary snapshot codec;
// Restore validates what it decodes.
func (s *Snapshot) Binary(c *binenc.Codec) {
	c.Floats(&s.Values)
	c.Floats(&s.Weights)
	c.Float(&s.Eta)
	c.Float(&s.Share)
	binenc.Int(c, &s.Rounds)
	c.Floats(&s.CumCost)
	c.Float(&s.CumIncurred)
}

// Restore reconstructs a learner from a snapshot, validating the same
// invariants the constructors enforce.
func Restore(s Snapshot) (*Learner, error) {
	if len(s.Values) == 0 || len(s.Weights) != len(s.Values) {
		return nil, fmt.Errorf("mw: snapshot has %d values, %d weights", len(s.Values), len(s.Weights))
	}
	if s.Eta <= 0 || s.Eta > 0.5 {
		return nil, fmt.Errorf("mw: snapshot eta %v outside (0, 0.5]", s.Eta)
	}
	if s.Share < 0 || s.Share >= 1 {
		return nil, fmt.Errorf("mw: snapshot share %v outside [0, 1)", s.Share)
	}
	if s.Rounds < 0 {
		return nil, fmt.Errorf("mw: snapshot rounds %d negative", s.Rounds)
	}
	if len(s.CumCost) != len(s.Values) {
		return nil, fmt.Errorf("mw: snapshot has %d cum costs for %d experts", len(s.CumCost), len(s.Values))
	}
	// Update can reach a zero weight: a factor of exactly 0.5 rounds the
	// smallest subnormal to 0, so a state Update reaches is restored.
	for i, w := range s.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("mw: snapshot weight[%d] = %v invalid", i, w)
		}
	}
	if maxW := slices.Max(s.Weights); !(maxW > 1e-6 && maxW < 1e6) { // what settle leaves alone
		return nil, fmt.Errorf("mw: snapshot weights peak at %v, which a learner rescales", maxW)
	}
	l := NewLearnerWithWeights(s.Values, s.Weights, s.Eta)
	l.share = s.Share
	l.rounds = s.Rounds
	copy(l.cumCost, s.CumCost)
	l.cumIncurred = s.CumIncurred
	return l, nil
}

// Reset restores all weights to 1 and clears regret accounting.
func (l *Learner) Reset() {
	for i := range l.weights {
		l.weights[i] = 1
	}
	for i := range l.cumCost {
		l.cumCost[i] = 0
	}
	l.cumIncurred = 0
	l.rounds = 0
}
