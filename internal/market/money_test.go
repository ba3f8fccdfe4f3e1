package market

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRounding(t *testing.T) {
	cases := []struct {
		in   float64
		want Money
	}{
		{0, 0},
		{1, 1_000_000},
		{1.5, 1_500_000},
		{0.0000005, 1}, // rounds half away from zero
		{-1.25, -1_250_000},
		{-0.0000005, -1},
	}
	for _, c := range cases {
		if got := FromFloat(c.in); got != c.want {
			t.Errorf("FromFloat(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFromFloatOverflowSaturates(t *testing.T) {
	// f*1e6 past the int64 range must clamp, not wrap: Go's float->int
	// conversion is undefined on overflow and produces MinInt64 on amd64,
	// which would turn an absurdly large price into a negative ledger
	// entry.
	const maxMoney = Money(math.MaxInt64)
	const minMoney = Money(math.MinInt64)
	cases := []struct {
		name string
		in   float64
		want Money
	}{
		{"just over max", float64(math.MaxInt64) / float64(Micro) * 1.001, maxMoney},
		{"2^63 units", math.Pow(2, 63), maxMoney},
		{"huge positive", 1e300, maxMoney},
		{"+inf", math.Inf(1), maxMoney},
		{"just under min", -float64(math.MaxInt64) / float64(Micro) * 1.001, minMoney},
		{"huge negative", -1e300, minMoney},
		{"-inf", math.Inf(-1), minMoney},
		{"nan", math.NaN(), 0},
		// Near-boundary values that do fit must still convert normally.
		{"large in range", 9e12, 9e12 * 1_000_000},
		{"large negative in range", -9e12, -9e12 * 1_000_000},
	}
	for _, c := range cases {
		if got := FromFloat(c.in); got != c.want {
			t.Errorf("%s: FromFloat(%v) = %d, want %d", c.name, c.in, got, c.want)
		}
	}
	// The sign must never flip: a non-negative float never becomes
	// negative Money and vice versa, across magnitudes spanning the
	// overflow boundary.
	for exp := 0.0; exp < 310; exp++ {
		f := math.Pow(10, exp)
		if FromFloat(f) < 0 {
			t.Fatalf("FromFloat(1e%v) went negative: %d", exp, FromFloat(f))
		}
		if FromFloat(-f) > 0 {
			t.Fatalf("FromFloat(-1e%v) went positive: %d", exp, FromFloat(-f))
		}
	}
}

func TestFromFloatMonotoneAcrossBoundary(t *testing.T) {
	// Saturation keeps FromFloat monotone: growing inputs never produce
	// shrinking Money.
	inputs := []float64{
		0, 1, 1e6, 1e12, float64(math.MaxInt64) / float64(Micro) * 0.999,
		float64(math.MaxInt64) / float64(Micro) * 1.001, 1e200, math.Inf(1),
	}
	prev := Money(math.MinInt64)
	for _, f := range inputs {
		got := FromFloat(f)
		if got < prev {
			t.Fatalf("FromFloat not monotone: f=%v gave %d after %d", f, got, prev)
		}
		prev = got
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(units int32, micros int32) bool {
		m := Money(units)*Micro + Money(micros%1_000_000)
		return FromFloat(m.Float()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoneyString(t *testing.T) {
	cases := []struct {
		in   Money
		want string
	}{
		{0, "0.000000"},
		{1_500_000, "1.500000"},
		{-1_250_000, "-1.250000"},
		{42, "0.000042"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUtilityEquation1(t *testing.T) {
	// Winner before deadline: v - p.
	if u := Utility(100, 60, true, 3, 5); u != 40 {
		t.Errorf("utility = %v", u)
	}
	// Winner after deadline: 0.
	if u := Utility(100, 60, true, 6, 5); u != 0 {
		t.Errorf("post-deadline utility = %v", u)
	}
	// Loser: 0.
	if u := Utility(100, 60, false, 3, 5); u != 0 {
		t.Errorf("loser utility = %v", u)
	}
	// Deadline boundary is inclusive (delta = 1 when t <= tau).
	if u := Utility(100, 60, true, 5, 5); u != 40 {
		t.Errorf("boundary utility = %v", u)
	}
	// Winning above valuation yields negative utility (overpaying).
	if u := Utility(50, 60, true, 0, 5); u != -10 {
		t.Errorf("overpay utility = %v", u)
	}
}

func TestSurplus(t *testing.T) {
	if s := Surplus(100, 60, true); s != 40 {
		t.Errorf("surplus = %v", s)
	}
	if s := Surplus(100, 60, false); s != 0 {
		t.Errorf("loser surplus = %v", s)
	}
}

func TestPatienceFunctions(t *testing.T) {
	// Deadline step: 1 through the deadline, 0 after.
	if DeadlinePatience(5, 5) != 1 || DeadlinePatience(6, 5) != 0 {
		t.Error("DeadlinePatience step broken")
	}
	// Linear decay: full at t=0, decreasing, 0 past deadline.
	if LinearDecayPatience(0, 9) != 1 {
		t.Errorf("linear at 0 = %v", LinearDecayPatience(0, 9))
	}
	prev := 1.1
	for tt := 0; tt <= 9; tt++ {
		p := LinearDecayPatience(tt, 9)
		if p <= 0 || p >= prev {
			t.Fatalf("linear not strictly decreasing positive at t=%d: %v", tt, p)
		}
		prev = p
	}
	if LinearDecayPatience(10, 9) != 0 || LinearDecayPatience(-1, 9) != 0 {
		t.Error("linear outside range not 0")
	}
	// Exponential decay: halves every halfLife.
	exp := ExpDecayPatience(2)
	if exp(0, 100) != 1 {
		t.Errorf("exp at 0 = %v", exp(0, 100))
	}
	if got := exp(2, 100); got < 0.499 || got > 0.501 {
		t.Errorf("exp at halfLife = %v, want 0.5", got)
	}
	if exp(101, 100) != 0 {
		t.Error("exp past deadline not 0")
	}
}

func TestExpDecayPatiencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("halfLife 0 accepted")
		}
	}()
	ExpDecayPatience(0)
}

func TestUtilityWith(t *testing.T) {
	// Generalized Equation 1 with linear decay at mid-horizon.
	u := UtilityWith(LinearDecayPatience, 100, 60, true, 5, 9)
	want := (1 - 5.0/10) * 40
	if u != want {
		t.Errorf("UtilityWith = %v, want %v", u, want)
	}
	if UtilityWith(LinearDecayPatience, 100, 60, false, 5, 9) != 0 {
		t.Error("loser utility not 0")
	}
	// With the deadline step it reduces to Utility.
	if UtilityWith(DeadlinePatience, 100, 60, true, 3, 5) != Utility(100, 60, true, 3, 5) {
		t.Error("UtilityWith(DeadlinePatience) != Utility")
	}
}
