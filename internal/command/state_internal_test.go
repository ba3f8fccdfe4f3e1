package command

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
)

// paidOut sells a dataset backed by n base datasets — uploaded in
// reverse of their sorted order, one seller each — for price, through
// paySellers itself, and returns what each leaf's owner was credited,
// in sorted leaf order, with the total paySellers reported. With n == 1
// the dataset sold is the base dataset itself, which has no leaves to
// resolve: its owner comes straight from the ownership table.
func paidOut(t *testing.T, price Money, n int) ([]Money, Money) {
	t.Helper()
	st, err := NewState(Config{
		Engine: core.Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 4, MinBid: 1},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]DatasetID, n)
	for i := n - 1; i >= 0; i-- {
		leaves[i] = DatasetID(fmt.Sprintf("leaf-%02d", i))
		seller := SellerID("owner-of-" + leaves[i])
		for _, cmd := range []Command{RegisterSeller{Seller: seller}, UploadDataset{Seller: seller, Dataset: leaves[i]}} {
			if _, err := Apply(st, cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	sold := leaves[0]
	var resolved []string
	if n > 1 {
		sold = "bundle"
		shuffled := slices.Clone(leaves)
		slices.Reverse(shuffled)
		if _, err := Apply(st, ComposeDataset{Dataset: sold, Constituents: shuffled}); err != nil {
			t.Fatal(err)
		}
		if resolved, err = st.graph.Leaves(string(sold)); err != nil {
			t.Fatal(err)
		}
	}
	total := st.paySellers(sold, resolved, price)
	parts := make([]Money, n)
	for i, leaf := range leaves {
		if parts[i], err = st.SellerBalance(SellerID("owner-of-" + leaf)); err != nil {
			t.Fatal(err)
		}
	}
	return parts, total
}

// TestPaySellersSplitsExactly pins the sale split on paySellers itself:
// a price that does not divide evenly is distributed with the remainder
// going micro-by-micro to the earliest leaves in sorted order —
// whatever order they were uploaded or composed in — and no micro is
// ever minted or lost.
func TestPaySellersSplitsExactly(t *testing.T) {
	for _, c := range []struct {
		name  string
		price Money
		want  []Money
	}{
		{"a base dataset's owner takes it all", 7, []Money{7}},
		{"a base dataset sold for nothing", 0, []Money{0}},
		{"one micro two ways", 1, []Money{1, 0}},
		{"seven micros three ways", 7, []Money{3, 2, 2}},
		{"divides evenly", 9, []Money{3, 3, 3}},
		{"cent across three sellers", 10_000, []Money{3334, 3333, 3333}},
		{"unit across seven", Micro, []Money{142858, 142857, 142857, 142857, 142857, 142857, 142857}},
		{"zero", 0, []Money{0, 0, 0, 0}},
		{"more leaves than micros", 3, []Money{1, 1, 1, 0, 0}},
	} {
		got, total := paidOut(t, c.price, len(c.want))
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: leaves credited %v, want %v", c.name, got, c.want)
		}
		if total != c.price {
			t.Errorf("%s: credited %d in total, want %d", c.name, total, c.price)
		}
	}

	// Any price over any leaf count: parts are non-negative, sum to the
	// price, differ by at most one micro, and never grow along the sorted
	// leaves.
	property := func(raw uint32, nRaw uint8) bool {
		price, n := Money(raw), 1+int(nRaw%10)
		parts, total := paidOut(t, price, n)
		var sum Money
		for _, p := range parts {
			sum += p
		}
		return sum == price && total == price && parts[n-1] >= 0 && parts[0]-parts[n-1] <= 1 &&
			slices.IsSortedFunc(parts, func(a, b Money) int { return int(b - a) })
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}

	// A withdrawn base dataset has no owner left to credit: nothing is
	// paid, and paySellers says so, so the books never count money that
	// reached nobody.
	st := MustNewState(Config{Engine: core.Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 4, MinBid: 1}})
	for _, cmd := range []Command{
		RegisterSeller{Seller: "s"}, UploadDataset{Seller: "s", Dataset: "d"}, WithdrawDataset{Seller: "s", Dataset: "d"},
	} {
		if _, err := Apply(st, cmd); err != nil {
			t.Fatal(err)
		}
	}
	if paid := st.paySellers("d", nil, 7); paid != 0 {
		t.Errorf("a withdrawn dataset's sale credited %d, want 0", paid)
	}
	if bal, err := st.SellerBalance("s"); err != nil || bal != 0 {
		t.Errorf("former owner's balance = %v, %v; want 0", bal, err)
	}
}

// TestPairIs12Bytes pins the (buyer, dataset) record at 12 bytes: two
// int32 periods and the dataset index over the flags. A field that
// re-pads it fails here by name.
func TestPairIs12Bytes(t *testing.T) {
	if n := unsafe.Sizeof(pair{}); n != 12 {
		t.Fatalf("pair is %d bytes, want 12", n)
	}
}

// TestCatalogFull lowers the catalog's cap to three names. A fourth, by
// upload or compose, is ErrCatalogFull and moves nothing; bids on the
// three still decide; and RestoreState takes a snapshot naming three but
// refuses one naming four, giving the count.
func TestCatalogFull(t *testing.T) {
	defer func(n int) { maxDatasets = n }(maxDatasets)
	maxDatasets = 3
	cfg := Config{Engine: core.Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 4, MinBid: 1}, Seed: 7}
	canonical := func(st *State) []byte {
		t.Helper()
		b, err := st.Snapshot().Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	st := MustNewState(cfg)
	for _, cmd := range []Command{
		RegisterSeller{Seller: "s"}, RegisterBuyer{Buyer: "b"},
		UploadDataset{Seller: "s", Dataset: "x"}, UploadDataset{Seller: "s", Dataset: "y"},
		ComposeDataset{Dataset: "xy", Constituents: []DatasetID{"x", "y"}},
	} {
		if _, err := Apply(st, cmd); err != nil {
			t.Fatal(err)
		}
	}
	full := canonical(st)
	for _, cmd := range []Command{
		UploadDataset{Seller: "s", Dataset: "z"},
		ComposeDataset{Dataset: "xz", Constituents: []DatasetID{"x"}},
	} {
		if _, err := Apply(st, cmd); !errors.Is(err, ErrCatalogFull) {
			t.Fatalf("%#v on a full catalog: %v, want ErrCatalogFull", cmd, err)
		}
		if !bytes.Equal(canonical(st), full) {
			t.Fatalf("a refused %#v moved the state", cmd)
		}
	}
	for _, d := range []DatasetID{"x", "xy"} {
		if evs, err := Apply(st, SubmitBid{Buyer: "b", Dataset: d, Amount: 50}); err != nil || evs[0].Kind != EvBidDecided {
			t.Fatalf("a bid on %s in a full catalog: %v, %v", d, evs, err)
		}
	}
	if _, err := RestoreState(st.Snapshot()); err != nil {
		t.Fatalf("a snapshot naming as many datasets as the cap: %v", err)
	}

	maxDatasets = 4
	if _, err := Apply(st, UploadDataset{Seller: "s", Dataset: "z"}); err != nil {
		t.Fatal(err)
	}
	maxDatasets = 3
	_, err := RestoreState(st.Snapshot())
	if !errors.Is(err, ErrCatalogFull) || !strings.Contains(err.Error(), "names 4 datasets") {
		t.Fatalf("a snapshot naming 4 datasets past a cap of 3: %v, want ErrCatalogFull giving the count", err)
	}
}
