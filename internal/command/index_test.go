package command_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/rng"
)

// The state numbers datasets in the order it meets them, and a restored
// state meets them in map order — so the two number the same market
// differently. These tests pin that nobody can tell.

// churnHistory is a seeded command history over a small pool of dataset
// names, so the same dataset is uploaded, bought, withdrawn and uploaded
// again many times over, between composes, ticks and bids from a slowly
// growing pool of buyers (a buyer owns everything it wants soon enough)
// who may or may not have registered yet. Many of its commands are
// refused; the refusals are part of the history.
func churnHistory(seed uint64, n int) []command.Command {
	r := rng.New(seed)
	i := 0
	seller := func() command.SellerID { return command.SellerID(fmt.Sprintf("s%d", r.Intn(3))) }
	buyer := func() command.BuyerID { return command.BuyerID(fmt.Sprintf("b%d", i/40+r.Intn(8))) }
	base := func() command.DatasetID { return command.DatasetID(fmt.Sprintf("d%d", r.Intn(10))) }
	derived := func() command.DatasetID { return command.DatasetID(fmt.Sprintf("c%d", r.Intn(4))) }
	any := func() command.DatasetID {
		if r.Bool(0.2) {
			return derived()
		}
		return base()
	}
	bid := func() command.SubmitBid {
		return command.SubmitBid{Buyer: buyer(), Dataset: any(), Amount: r.Uniform(5, 140)}
	}
	cmds := make([]command.Command, n)
	for ; i < n; i++ {
		switch p := r.Float64(); {
		case p < 0.02:
			cmds[i] = command.RegisterSeller{Seller: seller()}
		case p < 0.05:
			cmds[i] = command.RegisterBuyer{Buyer: buyer()}
		case p < 0.15:
			cmds[i] = command.UploadDataset{Seller: seller(), Dataset: base()}
		case p < 0.18:
			cmds[i] = command.ComposeDataset{Dataset: derived(), Constituents: []command.DatasetID{base(), any()}}
		case p < 0.26:
			cmds[i] = command.WithdrawDataset{Seller: seller(), Dataset: base()}
		case p < 0.29: // periods some thirty commands long: cadence refusals need company
			cmds[i] = command.Tick{}
		case p < 0.35:
			cmds[i] = command.BidBatch{Bids: []command.SubmitBid{bid(), bid(), bid()}}
		default:
			cmds[i] = bid()
		}
	}
	return cmds
}

// outcome is everything Apply hands back for one command.
type outcome struct {
	events []command.Event
	err    string
}

func applyAll(st *command.State, cmds []command.Command) []outcome {
	out := make([]outcome, len(cmds))
	for i, cmd := range cmds {
		// Tx points into the state's log, which never rewrites an element:
		// what it says now is what it will say when compared.
		evs, err := command.Apply(st, cmd)
		if out[i].events = evs; err != nil {
			out[i].err = err.Error()
		}
	}
	return out
}

// TestDatasetIndicesAreUnobservable: a history applied to one state from
// start to end, and the same history applied half-way, snapshotted,
// restored — which renumbers every dataset — and continued, yield the
// same events, the same error strings and the same canonical bytes.
func TestDatasetIndicesAreUnobservable(t *testing.T) {
	const n = 5000
	for _, seed := range []uint64{1, 2, 3} {
		cmds := churnHistory(seed, n)
		straight := command.MustNewState(testConfig())
		want := applyAll(straight, cmds)

		resumed := command.MustNewState(testConfig())
		got := applyAll(resumed, cmds[:n/2])
		resumed, err := command.RestoreState(resumed.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, applyAll(resumed, cmds[n/2:])...)

		kinds := map[string]int{}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d, command %d (%s): restored state answered\n%+v\nthe straight one\n%+v", seed, i, cmds[i].Op(), got[i], want[i])
			}
			if i >= n/2 {
				for _, sentinel := range []error{command.ErrAlreadyAcquired, command.ErrBidTooSoon, command.ErrWaitActive, command.ErrUnknownDataset, command.ErrDatasetInUse} {
					if strings.HasPrefix(want[i].err, sentinel.Error()) {
						kinds[sentinel.Error()]++
					}
				}
				for _, ev := range want[i].events {
					kinds[fmt.Sprintf("event %d won=%v leaves=%v", ev.Kind, ev.Decision.Allocated, len(ev.Leaves) > 0)]++
				}
			}
		}
		// The second half must have asked the restored pair records and
		// index table everything they answer.
		for _, kind := range []string{
			command.ErrAlreadyAcquired.Error(), command.ErrBidTooSoon.Error(), command.ErrWaitActive.Error(),
			command.ErrUnknownDataset.Error(), command.ErrDatasetInUse.Error(),
			fmt.Sprintf("event %d won=false leaves=false", command.EvDatasetAdded),
			fmt.Sprintf("event %d won=false leaves=false", command.EvDatasetRemoved),
			fmt.Sprintf("event %d won=true leaves=false", command.EvBidDecided),
			fmt.Sprintf("event %d won=true leaves=true", command.EvBidDecided),
			fmt.Sprintf("event %d won=false leaves=false", command.EvBidDecided),
		} {
			if kinds[kind] == 0 {
				t.Errorf("seed %d: the history never produced %q after the restore", seed, kind)
			}
		}
		if a, b := mustCanonical(t, straight.Snapshot()), mustCanonical(t, resumed.Snapshot()); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: %s", seed, straight.Snapshot().Diff(resumed.Snapshot()))
		}
	}
}

// TestBuyerMapPresenceRoundTrips: BuyerSnapshot's three maps need not
// hold the same keys — a wait without a last bid, an acquisition alone,
// an Acquired entry that says false, a key no engine stands behind — and
// the one record per (buyer, dataset) they restore into gives each map
// back exactly the keys it had.
func TestBuyerMapPresenceRoundTrips(t *testing.T) {
	for name, edit := range map[string]func(*command.BuyerSnapshot){
		"blocked-until only":   func(b *command.BuyerSnapshot) { b.BlockedUntil["traffic"] = 9 },
		"a wait of zero":       func(b *command.BuyerSnapshot) { b.BlockedUntil["traffic"] = 0 },
		"acquired only":        func(b *command.BuyerSnapshot) { b.Acquired["traffic"] = true },
		"acquired says false":  func(b *command.BuyerSnapshot) { b.Acquired["traffic"] = false },
		"last bid only":        func(b *command.BuyerSnapshot) { b.LastBid["traffic"] = 0 },
		"no engine behind it":  func(b *command.BuyerSnapshot) { b.LastBid["gone"], b.Acquired["gone"] = 1, true },
		"no engine, wait only": func(b *command.BuyerSnapshot) { b.BlockedUntil["never-was"] = 3 },
		"false on one it lost": func(b *command.BuyerSnapshot) { b.Acquired["weather"] = false },
		"all three, all zero": func(b *command.BuyerSnapshot) {
			b.LastBid["x"], b.BlockedUntil["x"], b.Acquired["x"] = 0, 0, false
		},
		"emptied": func(b *command.BuyerSnapshot) { *b = command.BuyerSnapshot{Spent: b.Spent} },
	} {
		snap := drive(t).Snapshot()
		carol := command.BuyerSnapshot{
			LastBid:      map[command.DatasetID]int{"weather": 1},
			BlockedUntil: map[command.DatasetID]int{"weather": 4},
			Acquired:     map[command.DatasetID]bool{},
		}
		edit(&carol)
		snap.Buyers["carol"] = carol
		want := mustCanonical(t, snap)
		st, err := command.RestoreState(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := st.Snapshot()
		if got := mustCanonical(t, again); !bytes.Equal(got, want) {
			t.Errorf("%s: carol restored and re-snapshotted as %+v, was %+v", name, again.Buyers["carol"], carol)
		}
	}
}
