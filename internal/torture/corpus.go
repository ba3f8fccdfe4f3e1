package torture

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/datamarket/shield/internal/binenc"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// commandFromOp converts one generated workload op into its typed
// command. Query ops are reads, with no command form, so ok is false
// for them.
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
	default:
		return nil, false
	}
}

// CommandCorpus replays the seeded workload generator for ops
// operations against the sequential reference model and returns the
// canonical JSON and binary encodings of every command in the stream —
// registrations, dataset churn, realistic persona-driven bids and
// batches, ticks, and the chaos ops' deliberately hostile
// amounts and identifiers. It exists to seed FuzzCommandDecode with
// encodings shaped like real traffic rather than hand-picked examples;
// determinism makes the corpus stable across runs of the same seed.
func CommandCorpus(seed uint64, ops int) ([][]byte, error) { return corpus(seed, ops, false) }

// SettleCorpus replays the same workload and spells each of its
// non-chaos bids as the command codec spelled a settlement before
// settlements left it: JSON op "settle" and binary opcode 9, each op's
// JSON then its binary as in CommandCorpus, the exante flag set at even
// op indexes. Every decoder must refuse them as an unknown op; they seed
// the decode fuzzers with that refusal in the shapes earlier clients
// wrote.
func SettleCorpus(seed uint64, ops int) ([][]byte, error) { return corpus(seed, ops, true) }

func corpus(seed uint64, ops int, settles bool) ([][]byte, error) {
	eng := DefaultEngine()
	gen, err := newGenerator(seed, eng.MinBid)
	if err != nil {
		return nil, err
	}
	ref := command.MustNewState(market.Config{Engine: eng, Seed: seed})

	var out [][]byte
	for i := 0; i < ops; i++ {
		op := gen.Next()
		if cmd, ok := commandFromOp(op); ok && !settles {
			j, err := command.EncodeJSON(cmd)
			if err != nil {
				return nil, fmt.Errorf("torture: corpus op %d (%s): json: %w", i, op, err)
			}
			b, err := command.EncodeBinary(cmd)
			if err != nil {
				return nil, fmt.Errorf("torture: corpus op %d (%s): binary: %w", i, op, err)
			}
			out = append(out, j, b)
		} else if settles && op.Kind == OpBid && !op.chaos {
			j, b, err := retiredSettle(op, i%2 == 0)
			if err != nil {
				return nil, fmt.Errorf("torture: corpus op %d (%s): %w", i, op, err)
			}
			out = append(out, j, b)
		}
		// The reference keeps the generator's books evolving realistically.
		gen.Observe(op, applyRef(ref, op))
	}
	return out, nil
}

// retiredSettle spells a bid op in the retired settlement encoding:
// JSON op "settle" with the fields it carried, and binary opcode 9 with
// a bid's buyer, dataset and amount then the exante flag's byte.
func retiredSettle(op Op, exante bool) (j, b []byte, err error) {
	j, err = json.Marshal(struct {
		Op      string           `json:"op"`
		Buyer   market.BuyerID   `json:"buyer,omitempty"`
		Dataset market.DatasetID `json:"dataset,omitempty"`
		Amount  float64          `json:"amount,omitempty"`
		Exante  bool             `json:"exante,omitempty"`
	}{"settle", op.Buyer, op.Dataset, op.Amount, exante})
	c := binenc.Encoder([]byte{9})
	binenc.Bytes(c, &op.Buyer)
	binenc.Bytes(c, &op.Dataset)
	c.Float(&op.Amount)
	c.Bool(&exante)
	return j, c.B, errors.Join(err, c.Err())
}
