package expost

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// twinConfig is an engine template with small epochs, so a stream of a
// few thousand calls crosses many epoch boundaries.
func twinConfig(seed uint64) Config {
	return Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(10, 200, 12),
			EpochSize:     8,
			Rule:          core.DrawMW,
			Wait:          core.WaitBound,
			MinBid:        5,
			BidsPerPeriod: 4,
			MaxWaitEpochs: 12,
		},
		Seed: seed,
	}
}

// twinStream drives a and b through one stream of calls drawn from
// seed — registrations, dataset additions, ticks, ex-ante bids, and
// requests each followed by a payment when granted — and returns the
// first divergence, naming the call: a result, an error text or the
// revenue after it that differs between the two, or a revenue that
// went down. It returns "" when the twins agree throughout.
func twinStream(a, b *Arbiter, seed uint64, calls int) string {
	r := rng.New(seed)
	var buyers, datasets []string
	last := market.Money(0)
	diff := func(call string, ra, rb any, ea, eb error) string {
		if ra != rb || fmt.Sprint(ea) != fmt.Sprint(eb) {
			return fmt.Sprintf("twins diverge on %s: %+v (%v) vs %+v (%v)", call, ra, ea, rb, eb)
		}
		return ""
	}
	for i := 0; i < calls; i++ {
		var call, reason string
		switch k := r.Intn(100); {
		case k < 2 || len(buyers) == 0:
			n := r.Intn(len(buyers) + 1) // a new ID, or an existing one both refuse
			id := fmt.Sprintf("b%02d", n)
			if n == len(buyers) {
				buyers = append(buyers, id)
			}
			call = "RegisterBuyer " + id
			reason = diff(call, nil, nil, a.RegisterBuyer(id), b.RegisterBuyer(id))
		case k < 4 || len(datasets) == 0:
			n := r.Intn(len(datasets) + 1)
			id := fmt.Sprintf("d%02d", n)
			if n == len(datasets) {
				datasets = append(datasets, id)
			}
			call = "AddDataset " + id
			reason = diff(call, nil, nil, a.AddDataset(id), b.AddDataset(id))
		case k < 20:
			call = "Tick"
			reason = diff(call, a.Tick(), b.Tick(), nil, nil)
		case k < 50:
			buyer, ds, amount := buyers[r.Intn(len(buyers))], datasets[r.Intn(len(datasets))], r.Uniform(-5, 220)
			call = fmt.Sprintf("Bid %s %s %.4f", buyer, ds, amount)
			ra, ea := a.Bid(buyer, ds, amount)
			rb, eb := b.Bid(buyer, ds, amount)
			reason = diff(call, ra, rb, ea, eb)
		default:
			buyer, ds := buyers[r.Intn(len(buyers))], datasets[r.Intn(len(datasets))]
			call = fmt.Sprintf("Request %s %s", buyer, ds)
			ga, ea := a.Request(buyer, ds)
			gb, eb := b.Request(buyer, ds)
			if reason = diff(call, ga, gb, ea, eb); reason != "" || ea != nil {
				break
			}
			payment := r.Uniform(-5, 220)
			call = fmt.Sprintf("Pay %d %.4f", ga, payment)
			pa, ea := a.Pay(ga, payment)
			pb, eb := b.Pay(gb, payment)
			reason = diff(call, pa, pb, ea, eb)
		}
		if reason != "" {
			return fmt.Sprintf("call %d: %s", i, reason)
		}
		revA, revB := a.Revenue(), b.Revenue()
		if revA != revB {
			return fmt.Sprintf("call %d: twin revenues diverge after %s: %s vs %s", i, call, revA, revB)
		}
		if revA < last {
			return fmt.Sprintf("call %d: revenue decreased after %s: %s -> %s", i, call, last, revA)
		}
		last = revA
	}
	return ""
}

// TestTwinsAgreeOnASeededStream: two arbiters built from one Config
// answer one seeded call stream identically, call for call, and revenue
// never goes down. The canary drives a twin built with another seed
// through the same stream, and the check must name the call where the
// two part.
func TestTwinsAgreeOnASeededStream(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		if reason := twinStream(MustNew(twinConfig(seed)), MustNew(twinConfig(seed)), seed, 5000); reason != "" {
			t.Errorf("seed %d: %s", seed, reason)
		}
	}
	reason := twinStream(MustNew(twinConfig(1)), MustNew(twinConfig(2)), 1, 5000)
	if !strings.Contains(reason, "twins diverge on ") && !strings.Contains(reason, "twin revenues diverge after ") {
		t.Fatalf("an arbiter with another seed went unnoticed: %q", reason)
	}
	t.Logf("canary: %s", reason)
}
