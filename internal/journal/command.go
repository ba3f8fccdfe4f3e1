package journal

import (
	"fmt"

	"github.com/datamarket/shield/internal/command"
)

// CommandFromEvent upgrades one journal record to the typed command it
// recorded. It is total over every body op ever written — version-0
// logs (PR-1/PR-2 era) and current logs share record shapes, so one
// upgrader serves both. Head records (genesis, snapshot) carry state,
// not commands, and fail with ErrDoubleStart, matching what a mid-log
// head has always meant; an unrecognized op fails with ErrBadEvent.
func CommandFromEvent(e Event) (command.Command, error) {
	switch e.Op {
	case OpRegisterBuyer:
		return command.RegisterBuyer{Buyer: command.BuyerID(e.Buyer)}, nil
	case OpRegisterSeller:
		return command.RegisterSeller{Seller: command.SellerID(e.Seller)}, nil
	case OpUpload:
		return command.UploadDataset{Seller: command.SellerID(e.Seller), Dataset: command.DatasetID(e.Dataset)}, nil
	case OpCompose:
		parts := make([]command.DatasetID, len(e.Constituents))
		for i, c := range e.Constituents {
			parts[i] = command.DatasetID(c)
		}
		return command.ComposeDataset{Dataset: command.DatasetID(e.Dataset), Constituents: parts}, nil
	case OpWithdraw:
		return command.WithdrawDataset{Seller: command.SellerID(e.Seller), Dataset: command.DatasetID(e.Dataset)}, nil
	case OpBid:
		return command.SubmitBid{Buyer: command.BuyerID(e.Buyer), Dataset: command.DatasetID(e.Dataset), Amount: e.Amount}, nil
	case OpBidBatch:
		bids := make([]command.SubmitBid, len(e.Bids))
		for i, b := range e.Bids {
			bids[i] = command.SubmitBid{Buyer: command.BuyerID(b.Buyer), Dataset: command.DatasetID(b.Dataset), Amount: b.Amount}
		}
		return command.BidBatch{Bids: bids}, nil
	case OpTick:
		return command.Tick{}, nil
	case OpGenesis, OpSnapshot:
		return nil, ErrDoubleStart
	default:
		return nil, fmt.Errorf("%w: unknown op %q", ErrBadEvent, e.Op)
	}
}

// EventFromCommand encodes a command as the journal record that
// replays it, the inverse of CommandFromEvent (modulo Seq and Trace,
// which the writer and request context own). Head records have no
// command form; anything else fails with ErrBadEvent.
func EventFromCommand(cmd command.Command) (Event, error) {
	switch c := cmd.(type) {
	case command.RegisterBuyer:
		return Event{Op: OpRegisterBuyer, Buyer: string(c.Buyer)}, nil
	case command.RegisterSeller:
		return Event{Op: OpRegisterSeller, Seller: string(c.Seller)}, nil
	case command.UploadDataset:
		return Event{Op: OpUpload, Seller: string(c.Seller), Dataset: string(c.Dataset)}, nil
	case command.ComposeDataset:
		parts := make([]string, len(c.Constituents))
		for i, p := range c.Constituents {
			parts[i] = string(p)
		}
		return Event{Op: OpCompose, Dataset: string(c.Dataset), Constituents: parts}, nil
	case command.WithdrawDataset:
		return Event{Op: OpWithdraw, Seller: string(c.Seller), Dataset: string(c.Dataset)}, nil
	case command.SubmitBid:
		return Event{Op: OpBid, Buyer: string(c.Buyer), Dataset: string(c.Dataset), Amount: c.Amount}, nil
	case command.BidBatch:
		bids := make([]BatchBid, len(c.Bids))
		for i, b := range c.Bids {
			bids[i] = BatchBid{Buyer: string(b.Buyer), Dataset: string(b.Dataset), Amount: b.Amount}
		}
		return Event{Op: OpBidBatch, Bids: bids}, nil
	case command.Tick:
		return Event{Op: OpTick}, nil
	default:
		return Event{}, fmt.Errorf("%w: no journal encoding for command %q", ErrBadEvent, cmd.Op())
	}
}
