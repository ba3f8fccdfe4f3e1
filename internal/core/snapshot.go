package core

import (
	"fmt"
	"slices"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/mw"
	"github.com/datamarket/shield/internal/rng"
)

// Snapshot is the engine's full serializable state: restoring it yields
// an engine that makes bit-identical decisions from that point on
// (learner weights, randomness stream, epoch buffer and statistics all
// carry over).
type Snapshot struct {
	// Config holds the engine configuration with the CURRENT candidate
	// grid (which may have moved under RegridEvery).
	Config Config `json:"config"`
	// OrigCandidates anchors adaptive regridding and Reset.
	OrigCandidates []float64    `json:"orig_candidates"`
	Learner        mw.Snapshot  `json:"learner"`
	Rand           rng.Snapshot `json:"rand"`
	Price          float64      `json:"price"`
	Epoch          []float64    `json:"epoch"`
	Revenue        float64      `json:"revenue"`
	Bids           int          `json:"bids"`
	Allocations    int          `json:"allocations"`
	Epochs         int          `json:"epochs"`
}

// Snapshot captures the engine state.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Config:         e.cfg,
		OrigCandidates: slices.Clone(e.origCandidates),
		Learner:        e.learner.Snapshot(),
		Rand:           e.rand.Snapshot(),
		Price:          e.price,
		Epoch:          make([]float64, len(e.epoch)),
		Revenue:        e.revenue,
		Bids:           e.bids,
		Allocations:    e.allocations,
		Epochs:         e.epochs,
	}
	// Config.Candidates is shared internal state; deep-copy it so the
	// snapshot is immune to further regrids.
	s.Config.Candidates = slices.Clone(e.cfg.Candidates)
	copy(s.Epoch, e.epoch)
	return s
}

// Binary walks the configuration's fields, in declaration order, for
// the binary snapshot codec.
func (c *Config) Binary(bc *binenc.Codec) {
	bc.Floats(&c.Candidates)
	binenc.Int(bc, &c.EpochSize)
	bc.Float(&c.Eta)
	binenc.Int(bc, &c.Rule)
	binenc.Int(bc, &c.Wait)
	binenc.Int(bc, &c.BidsPerPeriod)
	binenc.Int(bc, &c.MaxWaitEpochs)
	bc.Float(&c.MinBid)
	binenc.Int(bc, &c.AdHocNeighborhood)
	bc.Bool(&c.DisableWaitPeriods)
	binenc.Int(bc, &c.RegridEvery)
	bc.Float(&c.ShareFraction)
	binenc.Fixed(bc, &c.Seed)
}

// Binary walks the snapshot's fields, in declaration order;
// RestoreSnapshot validates what it decodes.
func (s *Snapshot) Binary(bc *binenc.Codec) {
	s.Config.Binary(bc)
	bc.Floats(&s.OrigCandidates)
	s.Learner.Binary(bc)
	s.Rand.Binary(bc)
	bc.Float(&s.Price)
	bc.Floats(&s.Epoch)
	bc.Float(&s.Revenue)
	binenc.Int(bc, &s.Bids)
	binenc.Int(bc, &s.Allocations)
	binenc.Int(bc, &s.Epochs)
}

// RestoreSnapshot reconstructs an engine from a snapshot.
func RestoreSnapshot(s Snapshot) (*Engine, error) {
	if err := s.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	if len(s.OrigCandidates) < 2 {
		return nil, fmt.Errorf("core: snapshot has %d original candidates", len(s.OrigCandidates))
	}
	if s.Bids < 0 || s.Allocations < 0 || s.Epochs < 0 || s.Revenue < 0 {
		return nil, fmt.Errorf("core: snapshot statistics negative")
	}
	if s.Rand.Inc&1 == 0 { // no generator has one; restoring it would change it
		return nil, fmt.Errorf("core: snapshot generator increment %d is even", s.Rand.Inc)
	}
	if len(s.Epoch) >= s.Config.EpochSize && s.Config.EpochSize > 0 {
		return nil, fmt.Errorf("core: snapshot epoch buffer holds %d bids for epoch size %d",
			len(s.Epoch), s.Config.EpochSize)
	}
	learner, err := mw.Restore(s.Learner)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot learner: %w", err)
	}
	if learner.Len() != len(s.Config.Candidates) {
		return nil, fmt.Errorf("core: snapshot learner has %d experts for %d candidates",
			learner.Len(), len(s.Config.Candidates))
	}

	// The scoring kernel reads prices from Config.Candidates and weights
	// from the learner; an engine keeps the two aligned by construction.
	for i, v := range s.Learner.Values {
		if v != s.Config.Candidates[i] {
			return nil, fmt.Errorf("core: snapshot learner expert %d plays %v, candidate is %v",
				i, v, s.Config.Candidates[i])
		}
	}

	// The config is kept as recorded (see Config.eta). The original grid,
	// unlike the validated candidates, is scanned: a NaN there is skipped,
	// not taken.
	orig := slices.Clone(s.OrigCandidates)
	origLo, origHi := orig[0], orig[0]
	for _, c := range orig[1:] {
		if c < origLo {
			origLo = c
		}
		if c > origHi {
			origHi = c
		}
	}
	e := &Engine{
		cfg:            s.Config,
		learner:        learner,
		rand:           *rng.Restore(s.Rand),
		minCandidate:   slices.Min(s.Config.Candidates),
		origCandidates: orig,
		origLo:         origLo,
		origHi:         origHi,
		price:          s.Price,
		revenue:        s.Revenue,
		bids:           s.Bids,
		allocations:    s.Allocations,
		epochs:         s.Epochs,
	}
	e.carve()
	e.epoch = append(e.epoch, s.Epoch...)
	return e, nil
}
