package torture

import (
	"fmt"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// commandFromOp converts one generated workload op into its typed
// command. Query ops are reads — they have no command form — so ok is
// false for them. Settle ops convert even though Apply rejects them
// against market state: they exercise the codec's ninth opcode.
func commandFromOp(op Op) (command.Command, bool) {
	switch op.Kind {
	case OpRegisterBuyer:
		return command.RegisterBuyer{Buyer: op.Buyer}, true
	case OpRegisterSeller:
		return command.RegisterSeller{Seller: op.Seller}, true
	case OpUpload:
		return command.UploadDataset{Seller: op.Seller, Dataset: op.Dataset}, true
	case OpCompose:
		return command.ComposeDataset{Dataset: op.Dataset, Constituents: op.Constituents}, true
	case OpWithdraw:
		return command.WithdrawDataset{Seller: op.Seller, Dataset: op.Dataset}, true
	case OpTick:
		return command.Tick{}, true
	case OpBid:
		return command.SubmitBid{Buyer: op.Buyer, Dataset: op.Dataset, Amount: op.Amount}, true
	case OpBatch:
		bids := make([]command.SubmitBid, len(op.Bids))
		for i, b := range op.Bids {
			bids[i] = command.SubmitBid{Buyer: b.Buyer, Dataset: b.Dataset, Amount: b.Amount}
		}
		return command.BidBatch{Bids: bids}, true
	case OpSettle:
		return command.Settle{Buyer: op.Buyer, Dataset: op.Dataset, Amount: op.Amount, Exante: op.Exante}, true
	default:
		return nil, false
	}
}

// CommandCorpus replays the seeded workload generator for ops
// operations against the sequential reference model and returns the
// canonical JSON and binary encodings of every command in the stream —
// registrations, dataset churn, realistic persona-driven bids and
// batches, ticks, settles, and the chaos ops' deliberately hostile
// amounts and identifiers. It exists to seed FuzzCommandDecode with
// encodings shaped like real traffic rather than hand-picked examples;
// determinism makes the corpus stable across runs of the same seed.
func CommandCorpus(seed uint64, ops int) ([][]byte, error) {
	cfg := Config{Seed: seed, Ops: ops}
	cfg.applyDefaults()
	minBid := cfg.Engine.MinBid
	if minBid <= 0 {
		minBid = 1
	}
	gen, err := newGenerator(seed, minBid)
	if err != nil {
		return nil, err
	}
	ref := newRefMarket(market.Config{Engine: cfg.Engine, Seed: seed})

	var out [][]byte
	for i := 0; i < ops; i++ {
		op := gen.Next()
		if cmd, ok := commandFromOp(op); ok {
			j, err := command.EncodeJSON(cmd)
			if err != nil {
				return nil, fmt.Errorf("torture: corpus op %d (%s): json: %w", i, op, err)
			}
			b, err := command.EncodeBinary(cmd)
			if err != nil {
				return nil, fmt.Errorf("torture: corpus op %d (%s): binary: %w", i, op, err)
			}
			out = append(out, j, b)
		}
		// Settles never touch market state; everything else feeds the
		// reference so the generator's books keep evolving realistically.
		if op.Kind == OpSettle {
			gen.Observe(op, opResult{})
			continue
		}
		gen.Observe(op, applyRef(ref, op))
	}
	return out, nil
}
