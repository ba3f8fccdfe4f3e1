package core

import (
	"encoding/json"
	"testing"

	"github.com/datamarket/shield/internal/rng"
)

func TestEngineSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.EpochSize = 4
	e := MustNew(cfg)
	r := rng.New(21)
	// Leave the engine mid-epoch so the buffer state matters.
	for i := 0; i < 101; i++ {
		e.SubmitBid(r.Uniform(0, 120))
	}

	snap := e.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(decoded)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Revenue() != e.Revenue() || restored.Bids() != e.Bids() ||
		restored.Allocations() != e.Allocations() || restored.Epochs() != e.Epochs() {
		t.Fatalf("statistics differ: %+v vs live", restored)
	}
	if restored.PostingPrice() != e.PostingPrice() {
		t.Fatalf("price %v vs %v", restored.PostingPrice(), e.PostingPrice())
	}
	// Bit-identical decisions from here on (epoch buffer, weights and
	// randomness all carried over).
	for i := 0; i < 300; i++ {
		b := r.Uniform(0, 120)
		if d1, d2 := e.SubmitBid(b), restored.SubmitBid(b); d1 != d2 {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, d1, d2)
		}
	}
}

func TestEngineSnapshotWithRegrid(t *testing.T) {
	cfg := regridConfig()
	e := MustNew(cfg)
	for i := 0; i < 4*60; i++ {
		e.SubmitBid(60)
	}
	snap := e.Snapshot()
	restored, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The zoomed grid carries over...
	rc := restored.Config().Candidates
	lc := e.Config().Candidates
	for i := range lc {
		if rc[i] != lc[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, rc[i], lc[i])
		}
	}
	// ...and keeps regridding identically.
	for i := 0; i < 4*40; i++ {
		if d1, d2 := e.SubmitBid(60), restored.SubmitBid(60); d1 != d2 {
			t.Fatalf("post-restore regrid diverged at %d", i)
		}
	}
	// Reset still restores the ORIGINAL grid.
	restored.Reset(cfg.Seed)
	rc = restored.Config().Candidates
	for i, c := range cfg.Candidates {
		if rc[i] != c {
			t.Fatalf("Reset after restore lost original grid at %d", i)
		}
	}
}

func TestEngineSnapshotValidation(t *testing.T) {
	e := MustNew(testConfig())
	e.SubmitBid(50)
	good := e.Snapshot()

	mutate := func(f func(*Snapshot)) Snapshot {
		data, _ := json.Marshal(good)
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		return s
	}
	cases := map[string]Snapshot{
		"bad config":     mutate(func(s *Snapshot) { s.Config.EpochSize = 0 }),
		"no orig grid":   mutate(func(s *Snapshot) { s.OrigCandidates = nil }),
		"negative bids":  mutate(func(s *Snapshot) { s.Bids = -1 }),
		"overfull epoch": mutate(func(s *Snapshot) { s.Epoch = make([]float64, s.Config.EpochSize) }),
		"learner experts": mutate(func(s *Snapshot) {
			s.Learner.Values = s.Learner.Values[:1]
			s.Learner.Weights = s.Learner.Weights[:1]
			s.Learner.CumCost = s.Learner.CumCost[:1]
		}),
		"bad weight":     mutate(func(s *Snapshot) { s.Learner.Weights[0] = -1 }),
		"bad eta":        mutate(func(s *Snapshot) { s.Learner.Eta = 2 }),
		"learner values": mutate(func(s *Snapshot) { s.Learner.Values[1] += 0.5 }),
	}
	for name, s := range cases {
		if _, err := RestoreSnapshot(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := RestoreSnapshot(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

func TestRNGSnapshotContinuesStream(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	r.Normal(0, 1) // prime the Box-Muller spare
	snap := r.Snapshot()
	clone := rng.Restore(snap)
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	if a, b := r.Normal(1, 2), clone.Normal(1, 2); a != b {
		t.Fatal("normal draws diverged (spare not restored)")
	}
}
