package command

import (
	"fmt"
	"math"
)

// Money is an amount of market currency in integer micro-units
// (1_000_000 micros = 1 currency unit). Ledgers, payments, and balances
// use Money so that splitting revenue among sellers never loses or mints
// currency to floating-point drift; the pricing math (which carries no
// ledger obligations) stays in float64 and is quantized at this boundary.
type Money int64

// Micro is the number of Money micro-units per currency unit.
const Micro Money = 1_000_000

// FromFloat converts a float64 currency amount to Money, rounding half
// away from zero. Values beyond the Money range saturate at the int64
// bounds rather than wrapping (a float-to-int conversion whose value
// overflows int64 is platform-dependent in Go and wraps to MinInt64 on
// amd64 — a positive price must never become a negative ledger entry).
// NaN converts to zero.
func FromFloat(f float64) Money {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * float64(Micro)
	// float64(MaxInt64) rounds up to 2^63, so scaled >= it implies the
	// rounded value cannot fit; the negative bound is exact.
	if scaled >= float64(math.MaxInt64) {
		return Money(math.MaxInt64)
	}
	if scaled <= float64(math.MinInt64) {
		return Money(math.MinInt64)
	}
	if f >= 0 {
		return Money(scaled + 0.5)
	}
	return Money(scaled - 0.5)
}

// Float converts m back to float64 currency units.
func (m Money) Float() float64 { return float64(m) / float64(Micro) }

// String renders m with six decimal places, e.g. "12.500000".
func (m Money) String() string {
	neg := m < 0
	if neg {
		m = -m
	}
	s := fmt.Sprintf("%d.%06d", m/Micro, m%Micro)
	if neg {
		return "-" + s
	}
	return s
}
