package core

import (
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/rng"
)

func regridConfig() Config {
	cfg := testConfig()
	cfg.RegridEvery = 5
	cfg.EpochSize = 4
	return cfg
}

func TestRegridValidation(t *testing.T) {
	cfg := testConfig()
	cfg.RegridEvery = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative RegridEvery accepted")
	}
}

func TestRegridPreservesCandidateCountAndBounds(t *testing.T) {
	cfg := regridConfig()
	e := MustNew(cfg)
	n := len(cfg.Candidates)
	lo, hi := cfg.Candidates[0], cfg.Candidates[len(cfg.Candidates)-1]
	r := rng.New(3)
	for i := 0; i < 4*100; i++ {
		e.SubmitBid(r.Uniform(40, 80))
		cands := e.Config().Candidates
		if len(cands) != n {
			t.Fatalf("candidate count changed: %d", len(cands))
		}
		for _, c := range cands {
			if c < lo-1e-9 || c > hi+1e-9 {
				t.Fatalf("candidate %v escaped original range [%v, %v]", c, lo, hi)
			}
		}
	}
}

func TestRegridZoomsIntoDemand(t *testing.T) {
	cfg := regridConfig()
	e := MustNew(cfg)
	// Stationary demand at ~60: after many regrids the grid should span
	// a narrow band around 60 rather than the full [10, 100].
	for i := 0; i < 4*200; i++ {
		e.SubmitBid(60)
	}
	cands := e.Config().Candidates
	span := cands[len(cands)-1] - cands[0]
	if span > 50 {
		t.Fatalf("grid span %v did not shrink toward the demand point", span)
	}
	if likely := e.MostLikelyPrice(); likely < 40 || likely > 62 {
		t.Fatalf("most likely price %v strayed from demand at 60", likely)
	}
}

func TestRegridTracksDriftingDemand(t *testing.T) {
	cfg := regridConfig()
	e := MustNew(cfg)
	// Demand drifts from 30 to 90; the adaptive grid must follow.
	for i := 0; i < 4*300; i++ {
		v := 30 + 60*float64(i)/(4*300)
		e.SubmitBid(v)
	}
	if likely := e.MostLikelyPrice(); likely < 60 {
		t.Fatalf("most likely price %v did not follow the drift to ~90", likely)
	}
}

func TestRegridImprovesResolutionOnCoarseGrids(t *testing.T) {
	// With only 6 candidates over [1, 200], a fixed grid prices in steps
	// of ~40; the adaptive grid zooms into the demand region and prices
	// much closer to the optimum. Compare revenue on the same stationary
	// stream.
	run := func(regrid int) float64 {
		cfg := Config{
			Candidates:         auction.LinearGrid(1, 200, 6),
			EpochSize:          4,
			MinBid:             1,
			Seed:               11,
			RegridEvery:        regrid,
			DisableWaitPeriods: true,
		}
		e := MustNew(cfg)
		r := rng.New(5)
		for i := 0; i < 4*250; i++ {
			e.SubmitBid(r.Uniform(55, 75))
		}
		return e.Revenue()
	}
	fixed := run(0)
	adaptive := run(5)
	if adaptive <= fixed {
		t.Fatalf("adaptive grid revenue %v not above fixed %v", adaptive, fixed)
	}
}

func TestRegridResetRestoresOriginalGrid(t *testing.T) {
	cfg := regridConfig()
	e := MustNew(cfg)
	for i := 0; i < 4*100; i++ {
		e.SubmitBid(60)
	}
	moved := e.Config().Candidates
	if moved[0] == cfg.Candidates[0] && moved[len(moved)-1] == cfg.Candidates[len(cfg.Candidates)-1] {
		t.Fatal("grid never moved; regrid not exercised")
	}
	e.Reset(cfg.Seed)
	restored := e.Config().Candidates
	for i, c := range cfg.Candidates {
		if restored[i] != c {
			t.Fatalf("Reset did not restore candidate %d: %v != %v", i, restored[i], c)
		}
	}
	// And the engine replays identically after reset.
	d1 := e.SubmitBid(60)
	e.Reset(cfg.Seed)
	d2 := e.SubmitBid(60)
	if d1 != d2 {
		t.Fatalf("post-reset decisions diverged: %+v vs %+v", d1, d2)
	}
}

func TestRegridKeepsWaitMachineryWorking(t *testing.T) {
	cfg := regridConfig()
	cfg.Rule = DrawMWMax
	e := MustNew(cfg)
	for i := 0; i < 4*50; i++ {
		e.SubmitBid(80)
	}
	// A losing bid must still get a sane wait against the zoomed grid.
	w := e.ComputeWaitPeriod(50)
	if w < 0 {
		t.Fatalf("wait = %d", w)
	}
}
