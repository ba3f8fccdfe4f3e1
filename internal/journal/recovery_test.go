package journal_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/torture"
)

// Recovery replays a log onto a bare command.State and derives the
// market's read views once, at the end (journal's replay). The tests
// here hold that shortcut to the long way round: the views it builds are
// the views per-record publication builds, and its cost per record does
// not grow with the registered population.

// population is every id a history mentioned, accepted or refused:
// reads of unknown ids must agree too.
type population struct {
	buyers   []market.BuyerID
	sellers  []market.SellerID
	datasets []market.DatasetID
}

func (p *population) note(cmd command.Command) {
	switch c := cmd.(type) {
	case command.RegisterBuyer:
		p.buyers = append(p.buyers, c.Buyer)
	case command.RegisterSeller:
		p.sellers = append(p.sellers, c.Seller)
	case command.UploadDataset:
		p.datasets = append(p.datasets, c.Dataset)
	case command.ComposeDataset:
		p.datasets = append(p.datasets, c.Dataset)
	}
}

// firstDifferingRead asks both markets every read a transport can ask,
// over the whole population, and names the first whose answers differ;
// "" when none does.
func firstDifferingRead(want, got *market.Market, p *population) string {
	differ := func(read string, a, b any, aerr, berr error) string {
		if !reflect.DeepEqual(a, b) || fmt.Sprint(aerr) != fmt.Sprint(berr) {
			return fmt.Sprintf("%s: %+v (%v) against %+v (%v)", read, a, aerr, b, berr)
		}
		return ""
	}
	type totals struct{ revenue, spent, balances market.Money }
	var wt, gt totals
	wt.revenue, wt.spent, wt.balances = want.Totals()
	gt.revenue, gt.spent, gt.balances = got.Totals()
	for _, d := range []string{
		differ("Period", want.Period(), got.Period(), nil, nil),
		differ("Datasets", want.Datasets(), got.Datasets(), nil, nil),
		differ("StatsAll", want.StatsAll(), got.StatsAll(), nil, nil),
		differ("Totals", wt, gt, nil, nil),
		differ("Revenue", want.Revenue(), got.Revenue(), nil, nil),
		differ("Transactions", want.Transactions(), got.Transactions(), nil, nil),
	} {
		if d != "" {
			return d
		}
	}
	for _, ds := range p.datasets {
		a, aerr := want.Stats(ds)
		b, berr := got.Stats(ds)
		if d := differ(fmt.Sprintf("Stats(%s)", ds), a, b, aerr, berr); d != "" {
			return d
		}
	}
	for _, s := range p.sellers {
		bal, aerr := want.SellerBalance(s)
		bal2, berr := got.SellerBalance(s)
		if d := differ(fmt.Sprintf("SellerBalance(%s)", s), bal, bal2, aerr, berr); d != "" {
			return d
		}
		ds, aerr := want.SellerDatasets(s)
		ds2, berr := got.SellerDatasets(s)
		if d := differ(fmt.Sprintf("SellerDatasets(%s)", s), ds, ds2, aerr, berr); d != "" {
			return d
		}
	}
	for _, b := range p.buyers {
		spent, aerr := want.BuyerSpend(b)
		spent2, berr := got.BuyerSpend(b)
		if d := differ(fmt.Sprintf("BuyerSpend(%s)", b), spent, spent2, aerr, berr); d != "" {
			return d
		}
		for _, ds := range p.datasets {
			owns, aerr := want.Owns(b, ds)
			owns2, berr := got.Owns(b, ds)
			if d := differ(fmt.Sprintf("Owns(%s, %s)", b, ds), owns, owns2, aerr, berr); d != "" {
				return d
			}
			wait, aerr := want.WaitRemaining(b, ds)
			wait2, berr := got.WaitRemaining(b, ds)
			if d := differ(fmt.Sprintf("WaitRemaining(%s, %s)", b, ds), wait, wait2, aerr, berr); d != "" {
				return d
			}
		}
	}
	return ""
}

// history is what one torture-generated run left behind.
type history struct {
	dir  string
	live *market.Market // the market that wrote the log
	pop  population
	ckpt int64 // seq of the store's checkpoint, 0 for a genesis-only store
}

// writeHistory drives ops operations of the torture generator's seeded
// workload — persona-driven bids and batches, dataset churn, ticks, and
// the chaos ops every implementation must refuse — through a journaled
// store. With checkpoint set the store takes a checkpoint two thirds of
// the way in, so recovery is checkpoint plus tail.
func writeHistory(t *testing.T, seed uint64, ops int, checkpoint bool) *history {
	t.Helper()
	corpus, err := torture.CommandCorpus(seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	h := &history{dir: t.TempDir()}
	cfg := market.Config{Engine: torture.DefaultEngine(), Seed: seed}
	jm, _, err := journal.OpenStore(cfg, h.dir, journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1, SegmentRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	// The corpus alternates each command's JSON and binary encodings.
	for i := 1; i < len(corpus); i += 2 {
		cmd, err := command.DecodeBinary(corpus[i])
		if err != nil {
			t.Fatal(err)
		}
		h.pop.note(cmd)
		switch c := cmd.(type) {
		case command.BidBatch:
			// As the transports submit one: failures skipped, the rest
			// logged as a single bid_batch.
			reqs := make([]market.BidRequest, len(c.Bids))
			for j, b := range c.Bids {
				reqs[j] = market.BidRequest{Buyer: b.Buyer, Dataset: b.Dataset, Amount: b.Amount}
			}
			jm.SubmitBids(reqs)
		default:
			// Refusals are part of the workload; they log nothing.
			_, _ = jm.Apply(cmd)
		}
		if checkpoint && h.ckpt == 0 && i > len(corpus)*2/3 {
			if err := jm.Store().Checkpoint(); err != nil {
				t.Fatal(err)
			}
			h.ckpt = jm.Store().LastCheckpoint()
		}
	}
	if err := jm.Healthy(); err != nil {
		t.Fatal(err)
	}
	h.live = jm.Market
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

// oneAtATime rebuilds the history the long way: a fresh market, every
// record through market.Apply, each publishing its own effects. With
// staleAfter > 0 it is the canary instead: the state takes every record
// but the views are derived when record staleAfter has been applied and
// never again — the market a recovery would return if it built its views
// before replaying the tail.
func oneAtATime(t *testing.T, dir string, staleAfter int64) *market.Market {
	t.Helper()
	var (
		st *command.State
		m  *market.Market
	)
	err := journal.ScanDir(dir, func(_ string, e journal.Event) error {
		if e.Op == journal.OpGenesis {
			var err error
			if st, err = command.NewState(*e.Config); err != nil {
				return err
			}
			if staleAfter == 0 {
				m = market.FromState(st)
			}
			return nil
		}
		cmd, err := journal.CommandFromEvent(e)
		if err != nil {
			return err
		}
		if staleAfter == 0 {
			_, err = m.Apply(cmd)
		} else {
			_, err = command.Apply(st, cmd)
		}
		if e.Seq == staleAfter {
			m = market.FromState(st)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplayBuildsTheSameViews: over torture-generated histories, in a
// genesis-only store and in a checkpoint-plus-tail one, the market
// recovery returns answers every read exactly as the live market that
// wrote the log does, and exactly as a market that applied the same
// records one at a time through market.Apply.
func TestReplayBuildsTheSameViews(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []uint64{3, 17, 2022} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/checkpoint=%v", seed, checkpoint), func(t *testing.T) {
				h := writeHistory(t, seed, 900, checkpoint)
				recovered, lastSeq, replayed, err := journal.RecoverDir(h.dir)
				if err != nil {
					t.Fatal(err)
				}
				if want := lastSeq - h.ckpt; int64(replayed) != want || checkpoint == (h.ckpt == 0) {
					t.Fatalf("recovery replayed %d records past checkpoint %d of %d, want %d", replayed, h.ckpt, lastSeq, want)
				}
				if d := firstDifferingRead(h.live, recovered, &h.pop); d != "" {
					t.Errorf("recovered market differs from the live one in %s", d)
				}
				oneByOne := oneAtATime(t, h.dir, 0)
				if d := firstDifferingRead(oneByOne, recovered, &h.pop); d != "" {
					t.Errorf("recovered market differs from one-at-a-time replay in %s", d)
				}
				live := canonical(t, h.live)
				if canonical(t, recovered) != live || canonical(t, oneByOne) != live {
					t.Error("a replayed market's canonical bytes differ from the live market's")
				}

				// The canary: views derived before the tail must be told
				// apart, by name.
				staleAfter := h.ckpt
				if staleAfter == 0 {
					staleAfter = lastSeq * 2 / 3
				}
				stale := oneAtATime(t, h.dir, staleAfter)
				if canonical(t, stale) != live {
					t.Fatal("the canary's state is wrong, not just its views")
				}
				d := firstDifferingRead(h.live, stale, &h.pop)
				if d == "" {
					t.Fatalf("views built at seq %d of %d pass for current: the checker is blind", staleAfter, lastSeq)
				}
				t.Logf("canary tripped on %s", d)

				noteCoverage(t, seen, h)
			})
		}
	}
	for _, kind := range []string{"register_buyer", "register_seller", "upload", "compose", "withdraw", "bid", "bid_batch", "tick", "win", "running wait", "expired wait"} {
		if !seen[kind] {
			t.Errorf("no history held a %s: the comparison never exercised it", kind)
		}
	}
}

// canonical returns m's canonical bytes, and requires Market.Canonical,
// which streams them from a cut, to return the snapshot tree's bytes.
func canonical(t *testing.T, m *market.Market) string {
	t.Helper()
	b, err := m.Snapshot().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Canonical(), b) {
		t.Fatal("Market.Canonical differs from Snapshot().Canonical()")
	}
	return string(b)
}

// noteCoverage records which kinds of record and of buyer state the
// history really contained.
func noteCoverage(t *testing.T, seen map[string]bool, h *history) {
	t.Helper()
	err := journal.ScanDir(h.dir, func(_ string, e journal.Event) error {
		seen[string(e.Op)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := h.live.Snapshot()
	if len(snap.Transactions) > 0 {
		seen["win"] = true
	}
	for _, b := range snap.Buyers {
		for _, until := range b.BlockedUntil {
			if until > snap.Clock {
				seen["running wait"] = true
			} else {
				seen["expired wait"] = true
			}
		}
	}
}

// recoveryBytes builds a store of buyers registrations and bids bid
// attempts, and returns the bytes RecoverDir allocates and the records
// it replays.
func recoveryBytes(t *testing.T, buyers, bids int) (float64, int) {
	t.Helper()
	const datasets = 8
	dir := t.TempDir()
	cfg := market.Config{Engine: torture.DefaultEngine(), Seed: 1}
	jm, _, err := journal.OpenStore(cfg, dir, journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jm.RegisterSeller("s"))
	for d := 0; d < datasets; d++ {
		must(jm.UploadDataset("s", market.DatasetID(fmt.Sprintf("d%d", d))))
	}
	ids := make([]market.BuyerID, buyers)
	for i := range ids {
		ids[i] = market.BuyerID(fmt.Sprintf("buyer-%06d", i))
		must(jm.RegisterBuyer(ids[i]))
	}
	// The same bid stream whatever the population: the first 200 buyers
	// take turns, a tick after each round; waits and repeats are refused
	// and log nothing.
	for i := 0; i < bids; i++ {
		if i%200 == 0 {
			_, err := jm.Tick()
			must(err)
		}
		_, _ = jm.SubmitBid(ids[i%200], market.DatasetID(fmt.Sprintf("d%d", (i/200)%datasets)), float64(5+i*29%120))
	}
	must(jm.Close())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _, replayed, err := journal.RecoverDir(dir)
	runtime.ReadMemStats(&after)
	must(err)
	runtime.KeepAlive(m)
	return float64(after.TotalAlloc - before.TotalAlloc), replayed
}

// TestRecoveryCostIsFlatInBuyers pins recovery's cost against the
// registered population, per kind of record: with 20 000 buyers
// registered a replayed registration, and a replayed bid of the same
// stream, may each allocate at most twice what it does with 200. When
// replay published each record as the live market does, every
// registration re-copied the buyers view and the figure grew with the
// population. The kinds are kept apart because they cost different
// amounts — a registration its account and its views, a replayed bid
// only what it leaves in the state — so a ratio over all records
// measures the mix, not the growth. Bytes, not time, so the bound holds on a noisy host.
func TestRecoveryCostIsFlatInBuyers(t *testing.T) {
	const bids = 2000
	var perReg, perBid [2]float64
	for i, buyers := range []int{200, 20000} {
		regBytes, regs := recoveryBytes(t, buyers, 0)
		allBytes, all := recoveryBytes(t, buyers, bids)
		if all-regs < bids/2 {
			t.Fatalf("recovery replayed %d bid records of %d attempts", all-regs, bids)
		}
		perReg[i] = regBytes / float64(regs)
		perBid[i] = (allBytes - regBytes) / float64(all-regs)
	}
	t.Logf("RecoverDir allocates %.0f B per registration with 200 buyers, %.0f B with 20 000", perReg[0], perReg[1])
	t.Logf("RecoverDir allocates %.0f B per bid with 200 buyers, %.0f B with 20 000", perBid[0], perBid[1])
	for kind, per := range map[string][2]float64{"registration": perReg, "bid": perBid} {
		if per[1] > 2*per[0] {
			t.Errorf("RecoverDir allocates %.0f B per %s with 20 000 buyers against %.0f B with 200: recovery grows with the population", per[1], kind, per[0])
		}
	}
}

// gauge reads one label-less sample from a registry's exposition.
func gauge(t *testing.T, tel *obs.Telemetry, name string) float64 {
	t.Helper()
	var text strings.Builder
	if err := tel.Registry.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintExposition(text.String()); len(problems) > 0 {
		t.Fatalf("exposition does not lint: %v", problems)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s sample in the exposition", name)
	return 0
}

// TestRecoveryTelemetry: opening a store under WithTelemetry — as a
// leader or as a follower's store — reports, once, how long
// recovery took, how much of it deriving the read views took, and how
// many records it replayed past the checkpoint.
func TestRecoveryTelemetry(t *testing.T) {
	h := writeHistory(t, 3, 600, true)
	sc := journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1}

	tel := obs.NewTelemetry()
	jm, replayed, err := journal.OpenStore(market.Config{}, h.dir, sc, journal.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	rtel := obs.NewTelemetry()
	fm, err := journal.OpenFollower(h.dir, sc, journal.WithTelemetry(rtel))
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := fm.LastSeq()
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}

	if want := int(lastSeq - h.ckpt); replayed != want || replayed == 0 {
		t.Fatalf("OpenStore replayed %d records, want the %d past checkpoint %d", replayed, want, h.ckpt)
	}
	for who, tel := range map[string]*obs.Telemetry{"OpenStore": tel, "OpenFollower": rtel} {
		if got := gauge(t, tel, "shield_journal_recovery_records"); got != float64(replayed) {
			t.Errorf("%s: shield_journal_recovery_records = %v, want %d", who, got, replayed)
		}
		total := gauge(t, tel, "shield_journal_recovery_seconds")
		if total <= 0 || total > 60 {
			t.Errorf("%s: shield_journal_recovery_seconds = %v, want the open's duration", who, total)
		}
		if views := gauge(t, tel, "shield_journal_recovery_views_seconds"); views <= 0 || views > total {
			t.Errorf("%s: shield_journal_recovery_views_seconds = %v, want a part of the open's %v", who, views, total)
		}
	}
}

// TestRecoveredCellsStayIndependent: a recovered market's buyer cells
// are carved out of shared slabs — every owner's bitset out of one
// array, every buyer's running waits out of another — so trading on
// after the open must never let one buyer's cell write into a
// neighbour's. Over a history where every buyer owns a dataset and has
// two waits running, recovered from its log alone and from a checkpoint,
// the reopened store keeps trading: a losing bid that adds a third wait
// for every buyer (which must move its waits off the slab), wins,
// late registrations, and a 65th dataset won by everyone (which must
// grow every carved one-word bitset). After each phase every read must
// equal a market that lived the whole history without a restart.
func TestRecoveredCellsStayIndependent(t *testing.T) {
	const buyers = 32
	cfg := market.Config{
		Engine: core.Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: 8, BidsPerPeriod: 1000, MinBid: 1},
		Seed:   42,
	}
	const win, lose = 150, 5 // above the grid's top candidate; below its bottom, so a wait
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir, sc := t.TempDir(), journal.StoreConfig{CheckpointEvery: -1, RetainSegments: -1}
			jm, _, err := journal.OpenStore(cfg, dir, sc)
			if err != nil {
				t.Fatal(err)
			}
			live := market.MustNew(cfg)
			var pop population
			// apply runs cmd on the store and on the market that never
			// restarts, which must agree on its outcome.
			apply := func(cmd command.Command) {
				t.Helper()
				pop.note(cmd)
				_, err := live.Apply(cmd)
				if _, jerr := jm.Apply(cmd); fmt.Sprint(err) != fmt.Sprint(jerr) {
					t.Fatalf("%+v: the store says %v, the live market %v", cmd, jerr, err)
				}
				if err != nil {
					t.Fatalf("%+v: %v", cmd, err)
				}
			}
			buyer := func(i int) market.BuyerID { return market.BuyerID(fmt.Sprintf("b%02d", i)) }
			ds := func(i int) market.DatasetID { return market.DatasetID(fmt.Sprintf("d%02d", i)) }
			bid := func(b, d int, amount float64) {
				t.Helper()
				apply(command.SubmitBid{Buyer: buyer(b), Dataset: ds(d), Amount: amount})
			}
			compare := func(phase string) {
				t.Helper()
				if d := firstDifferingRead(live, jm.Market, &pop); d != "" {
					t.Fatalf("after %s the recovered market differs from the live one in %s", phase, d)
				}
			}

			apply(command.RegisterSeller{Seller: "s"})
			for d := 0; d < 64; d++ { // one word of bits
				apply(command.UploadDataset{Seller: "s", Dataset: ds(d)})
			}
			for b := 0; b < buyers; b++ {
				apply(command.RegisterBuyer{Buyer: buyer(b)})
				bid(b, b, win)
				bid(b, b+1, lose)
				bid(b, b+2, lose)
			}
			if checkpoint {
				if err := jm.Store().Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := jm.Close(); err != nil {
				t.Fatal(err)
			}
			if jm, _, err = journal.OpenStore(cfg, dir, sc); err != nil {
				t.Fatal(err)
			}
			defer jm.Close()
			compare("the reopen")
			for b := 0; b < buyers; b++ {
				if wait, err := live.WaitRemaining(buyer(b), ds(b+2)); wait == 0 || err != nil {
					t.Fatalf("%s waits %d on %s (%v): there are no waits to carve", buyer(b), wait, ds(b+2), err)
				}
			}

			for b := 0; b < buyers; b++ {
				bid(b, b+3, lose)
			}
			compare("a third wait for every buyer")
			for b := 0; b < buyers; b++ {
				bid(b, b+4, win)
			}
			for b := buyers; b < buyers+3; b++ {
				apply(command.RegisterBuyer{Buyer: buyer(b)})
				bid(b, b, win)
				bid(b, b+1, lose)
			}
			compare("wins and late registrations")
			apply(command.UploadDataset{Seller: "s", Dataset: ds(64)})
			for b := 0; b < buyers+3; b++ {
				bid(b, 64, win)
			}
			compare("every buyer's win on the 65th dataset")
		})
	}
}
