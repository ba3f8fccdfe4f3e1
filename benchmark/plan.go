package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/rng"
)

// The market every serving workload, the ladder and the probes run on:
// large enough that a (buyer, dataset) pair is bid on at most once per
// run, so almost no bid is business-rejected and every acknowledged op
// is a journal record.
const (
	marketDatasets = 64
	tickEvery      = 512
	seller         = market.SellerID("bench-seller")
)

// marketBuyers sizes the market with the run: 4 096 buyers at the 12
// seconds BENCHMARK.json runs (and above), proportionally fewer — a
// power of two, never under 64 — for the miniature runs the tests make,
// which would otherwise spend their time registering buyers.
func marketBuyers(seconds float64) int {
	n := 64
	for n < 4096 && float64(n) < 4096*seconds/12 {
		n *= 2
	}
	return n
}

type opKind uint8

const (
	opBid opKind = iota
	opTick
	opPeriod
	opStats
	opWait
	opBalance
	numOpKinds
)

var opNames = [numOpKinds]string{"bid", "tick", "period", "stats", "wait", "balance"}

// writes reports whether an acknowledged op of this kind is a journal
// record.
func (k opKind) writes() bool { return k == opBid || k == opTick }

// op is one planned client call.
type op struct {
	kind    opKind
	dataset uint8
	buyer   uint16
	amount  float64
}

// plan is the seeded input of a serving workload: one op list per
// worker, and the id tables the ops index into. Worker w owns the
// buyers w, w+W, w+2W, ... so two workers never race on one buyer's
// cadence state; datasets are shared.
type plan struct {
	buyers   []market.BuyerID
	datasets []market.DatasetID
	workers  [][]op
}

func marketIDs(buyers, datasets int) ([]market.BuyerID, []market.DatasetID) {
	bs := make([]market.BuyerID, buyers)
	for i := range bs {
		bs[i] = market.BuyerID(fmt.Sprintf("buyer-%04d", i))
	}
	ds := make([]market.DatasetID, datasets)
	for i := range ds {
		ds[i] = market.DatasetID(fmt.Sprintf("ds-%03d", i))
	}
	return bs, ds
}

// newPlan generates workers × opsPerWorker ops from seed, for a market
// of the given number of buyers. Every
// tickEvery-th op of a worker is a Tick; of the rest, readShare are
// reads (Period, Stats, WaitRemaining, SellerBalance, evenly) and the
// remainder bids. A worker's k-th bid goes to its own buyer k mod n on
// dataset (k mod n + k div n) mod D — a walk that visits each of the
// worker's n×D pairs once before repeating. Amounts are Normal(100, 30)
// floored at 1, from the worker's own fork of the seed.
func newPlan(seed uint64, buyers, workers, opsPerWorker int, readShare float64) *plan {
	p := &plan{workers: make([][]op, workers)}
	p.buyers, p.datasets = marketIDs(buyers, marketDatasets)
	root := rng.New(seed)
	own := buyers / workers
	for w := range p.workers {
		r := root.Fork(fmt.Sprintf("worker-%d", w))
		ops := make([]op, opsPerWorker)
		bids := 0
		for i := range ops {
			if i%tickEvery == tickEvery-1 {
				ops[i] = op{kind: opTick}
				continue
			}
			if readShare > 0 && r.Float64() < readShare {
				ops[i] = op{
					kind:    opPeriod + opKind(r.Intn(4)),
					buyer:   uint16(w + workers*r.Intn(own)),
					dataset: uint8(r.Intn(marketDatasets)),
				}
				continue
			}
			b := bids % own
			ops[i] = op{
				kind:    opBid,
				buyer:   uint16(w + workers*b),
				dataset: uint8((b + bids/own) % marketDatasets),
				amount:  math.Max(1, r.Normal(100, 30)),
			}
			bids++
		}
		p.workers[w] = ops
	}
	return p
}

// hash fingerprints every op of the plan; two plans with equal hashes
// drive the system identically.
func (p *plan) hash() uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, ops := range p.workers {
		for _, o := range ops {
			buf[0] = byte(o.kind)
			buf[1] = o.dataset
			binary.LittleEndian.PutUint16(buf[2:], o.buyer)
			binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(o.amount))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// command returns the market command a write op stands for.
func (p *plan) command(o op) command.Command {
	if o.kind == opTick {
		return command.Tick{}
	}
	return command.SubmitBid{Buyer: p.buyers[o.buyer], Dataset: p.datasets[o.dataset], Amount: o.amount}
}
