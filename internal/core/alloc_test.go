package core

import (
	"testing"

	"github.com/datamarket/shield/internal/auction"
)

// allocConfigs are the engines the allocation tests run: a small one and
// marketd's (40 candidates, epochs of 8, the floor on the cheapest
// candidate), the latter also with fixed-share mixing, whose replay
// rounds move every weight.
func allocConfigs(epochSize int, wait WaitStrategy) []namedConfig {
	serving := Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: epochSize, Wait: wait, MinBid: 1, Seed: 3}
	mixed := serving
	mixed.ShareFraction = 0.05
	return []namedConfig{
		{"", Config{Candidates: auction.LinearGrid(10, 100, 10), EpochSize: epochSize, Wait: wait, MinBid: 1, Seed: 3}},
		{"/serving", serving},
		{"/serving-share", mixed},
	}
}

type namedConfig struct {
	name string
	cfg  Config
}

// allocEngine is a Time-Shield-on engine taught that demand sits near 80,
// so a bid of 25 loses and pays for a full wait-period replay.
func allocEngine(cfg Config) *Engine {
	e := MustNew(cfg)
	for i := 0; i < 40*cfg.EpochSize; i++ {
		e.SubmitBid(80)
	}
	return e
}

// TestSubmitBidZeroAlloc pins the kernel's allocation contract on the
// three paths the issue names: a losing bid with Time-Shield on (the
// wait-period replay), a bid that closes an epoch (score, MW update,
// price draw), and ComputeWaitPeriod on its own.
func TestSubmitBidZeroAlloc(t *testing.T) {
	for _, wait := range []WaitStrategy{WaitBound, WaitStable} {
		for _, c := range allocConfigs(8, wait) {
			t.Run("losing/"+wait.String()+c.name, func(t *testing.T) {
				e := allocEngine(c.cfg)
				replays := 0
				n := testing.AllocsPerRun(200, func() {
					e.SubmitBid(80) // keeps demand, and the price, high
					if d := e.SubmitBid(25); !d.Allocated && d.Wait > 8 {
						replays++
					}
				})
				if n != 0 {
					t.Errorf("SubmitBid allocates %.2f times per winning+losing pair, want 0", n)
				}
				if replays < 150 {
					t.Errorf("only %d of 201 low bids lost to a full replay; the test is not measuring Time-Shield", replays)
				}
			})
		}
	}
	t.Run("epoch-close", func(t *testing.T) {
		e := allocEngine(allocConfigs(1, WaitBound)[0].cfg)
		before := e.Epochs()
		n := testing.AllocsPerRun(200, func() { e.SubmitBid(80); e.SubmitBid(25) })
		if n != 0 {
			t.Errorf("an epoch-closing SubmitBid allocates %.2f times per pair, want 0", n)
		}
		if closed := e.Epochs() - before; closed != 2*201 {
			t.Errorf("%d epochs closed over 402 bids, want one per bid", closed)
		}
	})
	t.Run("ComputeWaitPeriod", func(t *testing.T) {
		e := allocEngine(allocConfigs(8, WaitBound)[0].cfg)
		e.SubmitBid(80)
		e.SubmitBid(60)
		var wait int
		n := testing.AllocsPerRun(200, func() { wait = e.ComputeWaitPeriod(25) })
		if n != 0 {
			t.Errorf("ComputeWaitPeriod allocates %.2f times per call, want 0", n)
		}
		if wait <= 8 {
			t.Errorf("wait %d: the probe did not replay past the current epoch", wait)
		}
	})
}

// TestNewAllocs pins what building an engine allocates — the engine
// (its RNG held by value), one block for the candidates, the epoch and
// the kernel's scratch, the learner and one block for its slices — so no
// per-engine storage is added unnoticed: a market holds one engine per
// dataset. Reset, which a simulated figure's workers call once per pricer
// and series, allocates nothing.
func TestNewAllocs(t *testing.T) {
	for _, c := range allocConfigs(8, WaitBound) {
		if n := testing.AllocsPerRun(100, func() { MustNew(c.cfg) }); n != 4 {
			t.Errorf("%+v: New allocates %v times, want 4", c.cfg, n)
		}
		e := allocEngine(c.cfg)
		if n := testing.AllocsPerRun(100, func() { e.Reset(9) }); n != 0 {
			t.Errorf("%+v: Reset allocates %v times, want 0", c.cfg, n)
		}
	}
}
