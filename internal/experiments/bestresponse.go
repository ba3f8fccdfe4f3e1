package experiments

import (
	"fmt"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/buyers"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
	"github.com/datamarket/shield/internal/stats"
)

// BestResponseResult is the X7 output: realized buyer utility by
// strategy group in a mixed adaptive market, with Time-Shield waits on
// and off. It is the utility-side check of the paper's Claim 2: waiting
// removes allocation opportunities, so strategizing stops paying.
type BestResponseResult struct {
	// Sessions is the number of independent market sessions per arm.
	Sessions int
	// TruthfulUtility and StrategicUtility are mean per-buyer utilities
	// for each arm.
	TruthfulUtilityNoShield, StrategicUtilityNoShield float64
	TruthfulUtilityShield, StrategicUtilityShield     float64
	// TruthfulUtilityCautious and StrategicUtilityCautious are the third
	// arm: Time-Shield active AND buyers react to it behaviorally by
	// turning truthful after their first wait (the RQ5 finding).
	TruthfulUtilityCautious, StrategicUtilityCautious float64
	// StrategicWins* count strategic buyers who obtained the dataset.
	StrategicWinsNoShield, StrategicWinsShield, StrategicWinsCautious int
	// Revenue* are mean market revenues per arm.
	RevenueNoShield, RevenueShield, RevenueCautious float64
}

// StrategicAdvantageNoShield is the mean utility edge of strategizing
// without Time-Shield.
func (r BestResponseResult) StrategicAdvantageNoShield() float64 {
	return r.StrategicUtilityNoShield - r.TruthfulUtilityNoShield
}

// StrategicAdvantageShield is the edge with Time-Shield active.
func (r BestResponseResult) StrategicAdvantageShield() float64 {
	return r.StrategicUtilityShield - r.TruthfulUtilityShield
}

// StrategicAdvantageCautious is the edge when buyers also react to
// Time-Shield behaviorally (RQ5).
func (r BestResponseResult) StrategicAdvantageCautious() float64 {
	return r.StrategicUtilityCautious - r.TruthfulUtilityCautious
}

// X7BestResponse runs mixed adaptive markets — half truthful, half
// strategic low-ballers bidding 20% of value until their last chance —
// through the full market substrate (wait enforcement included), with
// Time-Shield on and off. Strategic buyers profit from price dips they
// catch while waiting costs nothing; once losing low bids trigger waits,
// the dips they can catch shrink with their remaining opportunities.
func X7BestResponse(o Options) (BestResponseResult, error) {
	if err := o.resolve(); err != nil {
		return BestResponseResult{}, err
	}
	const (
		buyersPerSide = 10
		periods       = 20
		deadline      = periods - 1
		meanV         = 100.0
		sdV           = 15.0
	)
	res := BestResponseResult{Sessions: o.Series}

	run := func(seed uint64, disableWaits, cautious bool) (tu, su, rev float64, wins int, err error) {
		m, err := market.New(market.Config{
			Engine: core.Config{
				Candidates:         auction.LinearGrid(10, 150, 15),
				EpochSize:          4,
				BidsPerPeriod:      buyersPerSide, // ~half the crowd bids per period
				MinBid:             1,
				MaxWaitEpochs:      16,
				DisableWaitPeriods: disableWaits,
			},
			Seed: seed,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if err := m.RegisterSeller("s"); err != nil {
			return 0, 0, 0, 0, err
		}
		if err := m.UploadDataset("s", "d"); err != nil {
			return 0, 0, 0, 0, err
		}
		valR := rng.New(seed ^ 0xabcdef)
		var parts []buyers.Participant
		var truthfulIDs, strategicIDs []market.BuyerID
		for i := 0; i < buyersPerSide; i++ {
			v := valR.Normal(meanV, sdV)
			if v < 20 {
				v = 20
			}
			tid := market.BuyerID(fmt.Sprintf("truthful-%d", i))
			sid := market.BuyerID(fmt.Sprintf("strategic-%d", i))
			if err := m.RegisterBuyer(tid); err != nil {
				return 0, 0, 0, 0, err
			}
			if err := m.RegisterBuyer(sid); err != nil {
				return 0, 0, 0, 0, err
			}
			parts = append(parts,
				buyers.Participant{ID: tid, Strategy: buyers.NewTruthful(v), Deadline: deadline},
				buyers.Participant{ID: sid, Strategy: buyers.NewStrategic(v, 0.2, 1, cautious), Deadline: deadline},
			)
			truthfulIDs = append(truthfulIDs, tid)
			strategicIDs = append(strategicIDs, sid)
		}
		session, err := buyers.RunSession(m, "d", parts, periods)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, id := range truthfulIDs {
			tu += session.Utility[id]
		}
		for _, id := range strategicIDs {
			su += session.Utility[id]
			if owns, _ := m.Owns(id, "d"); owns {
				wins++
			}
		}
		return tu / buyersPerSide, su / buyersPerSide, session.Revenue.Float(), wins, nil
	}

	var tuN, suN, revN, tuS, suS, revS, tuC, suC, revC []float64
	for s := 0; s < o.Series; s++ {
		seed := o.Seed + uint64(s)*7919
		tu, su, rev, wins, err := run(seed, true, false) // waits disabled
		if err != nil {
			return BestResponseResult{}, err
		}
		tuN = append(tuN, tu)
		suN = append(suN, su)
		revN = append(revN, rev)
		res.StrategicWinsNoShield += wins

		tu, su, rev, wins, err = run(seed, false, false) // Time-Shield, stubborn buyers
		if err != nil {
			return BestResponseResult{}, err
		}
		tuS = append(tuS, tu)
		suS = append(suS, su)
		revS = append(revS, rev)
		res.StrategicWinsShield += wins

		tu, su, rev, wins, err = run(seed, false, true) // Time-Shield + RQ5 reaction
		if err != nil {
			return BestResponseResult{}, err
		}
		tuC = append(tuC, tu)
		suC = append(suC, su)
		revC = append(revC, rev)
		res.StrategicWinsCautious += wins
	}
	res.TruthfulUtilityNoShield = stats.Mean(tuN)
	res.StrategicUtilityNoShield = stats.Mean(suN)
	res.RevenueNoShield = stats.Mean(revN)
	res.TruthfulUtilityShield = stats.Mean(tuS)
	res.StrategicUtilityShield = stats.Mean(suS)
	res.RevenueShield = stats.Mean(revS)
	res.TruthfulUtilityCautious = stats.Mean(tuC)
	res.StrategicUtilityCautious = stats.Mean(suC)
	res.RevenueCautious = stats.Mean(revC)
	return res, nil
}
