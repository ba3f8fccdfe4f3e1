package auction

import (
	"math"
	"testing"
)

// decodeBids turns fuzz bytes into a small bid vector with a mix of
// magnitudes, including zeros and negatives.
func decodeBids(data []byte) []float64 {
	bids := make([]float64, 0, len(data))
	for i, b := range data {
		v := float64(int(b)-32) * (1 + float64(i%7))
		bids = append(bids, v)
	}
	return bids
}

func FuzzOptimalPrice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 128})
	f.Add([]byte("the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		bids := decodeBids(data)
		price, revenue := OptimalPrice(bids)
		if math.IsNaN(price) || math.IsNaN(revenue) {
			t.Fatalf("NaN output: %v %v", price, revenue)
		}
		if revenue < 0 || price < 0 {
			t.Fatalf("negative output: price %v revenue %v", price, revenue)
		}
		// Self-consistency: the reported revenue is what the reported
		// price extracts.
		if revenue > 0 && math.Abs(Revenue(bids, price)-revenue) > 1e-6 {
			t.Fatalf("Revenue(price)=%v != optimal %v", Revenue(bids, price), revenue)
		}
		// No single bid value beats the optimum.
		for _, b := range bids {
			if Revenue(bids, b) > revenue+1e-6 {
				t.Fatalf("bid %v beats optimum %v", b, revenue)
			}
		}
		// Claim 1: splitting never lowers total optimal revenue.
		if len(bids) >= 2 {
			mid := len(bids) / 2
			_, left := OptimalPrice(bids[:mid])
			_, right := OptimalPrice(bids[mid:])
			if left+right < revenue-1e-6 {
				t.Fatal("partition superadditivity violated")
			}
		}
	})
}

func FuzzEpochPricerNeverPanics(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		optimal := func(bids []float64) float64 { p, _ := OptimalPrice(bids); return p }
		for _, summarize := range []SummaryFunc{AvgSummary, MedianSummary, optimal} {
			p := NewEpochPricer(3, summarize, 10)
			for _, b := range decodeBids(data) {
				p.ObserveBid(b)
				if math.IsNaN(p.PostingPrice()) {
					t.Fatal("NaN posting price")
				}
			}
		}
	})
}
