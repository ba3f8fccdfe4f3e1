package command

import (
	"errors"
	"fmt"
	"math"

	"github.com/datamarket/shield/internal/provenance"
)

// EventKind names what an Event records.
type EventKind int

// Event kinds, one per observable state transition.
const (
	EvBuyerRegistered EventKind = iota + 1
	EvSellerRegistered
	EvDatasetAdded
	EvDatasetRemoved
	EvTicked
	EvBidDecided
)

// Event records one state transition Apply performed. It is a flat
// struct rather than an interface so the live market's hot bid path can
// reuse one scratch buffer with zero per-bid boxing; fields are
// populated per Kind:
//
//   - EvBuyerRegistered: Buyer
//   - EvSellerRegistered: Seller
//   - EvDatasetAdded: Dataset, Seller (base only), Derived
//   - EvDatasetRemoved: Dataset, Seller
//   - EvTicked: Period (the new period)
//   - EvBidDecided: Buyer, Dataset, Amount, Period, Decision, Leaves
//     (demand-propagation targets, aliasing the state's table — do not
//     mutate), and for wins Paid (the total credited to sellers, which
//     the market's books cell applies as an exact balance delta).
type Event struct {
	Kind     EventKind
	Buyer    BuyerID
	Seller   SellerID
	Dataset  DatasetID
	Derived  bool
	Period   int
	Amount   float64
	Decision Decision
	Leaves   []string
	Paid     Money
}

// Apply executes cmd against st and returns the events it produced.
// It is the only code in the repository that mutates market state; the
// live market, journal replay, and the torture reference are shells
// around it. On error the state reflects the events already returned
// (only BidBatch can partially apply: its events are the bids that
// succeeded before the failing one).
//
// Apply needs exclusive access to st; see State.
func Apply(st *State, cmd Command) ([]Event, error) {
	return apply(st, cmd, nil)
}

// apply is Apply appending the events to evs.
func apply(st *State, cmd Command, evs []Event) ([]Event, error) {
	switch c := cmd.(type) {
	case RegisterBuyer:
		if c.Buyer == "" {
			return evs, ErrEmptyID
		}
		if _, ok := st.buyers[c.Buyer]; ok {
			return evs, fmt.Errorf("%w: buyer %s", ErrDuplicateID, c.Buyer)
		}
		if len(st.spare) == 0 {
			st.spare = make([]buyerAccount, 64)
		}
		acct := &st.spare[0]
		st.spare, acct.id, acct.index = st.spare[1:], c.Buyer, uint32(len(st.buyerIDs))
		st.buyers[c.Buyer] = acct
		st.buyerIDs = append(st.buyerIDs, c.Buyer)
		return append(evs, Event{Kind: EvBuyerRegistered, Buyer: c.Buyer}), nil

	case RegisterSeller:
		if c.Seller == "" {
			return evs, ErrEmptyID
		}
		if _, ok := st.sellers[c.Seller]; ok {
			return evs, fmt.Errorf("%w: seller %s", ErrDuplicateID, c.Seller)
		}
		st.sellers[c.Seller] = &sellerAccount{}
		return append(evs, Event{Kind: EvSellerRegistered, Seller: c.Seller}), nil

	case UploadDataset:
		if c.Dataset == "" {
			return evs, ErrEmptyID
		}
		acct, ok := st.sellers[c.Seller]
		if !ok {
			return evs, fmt.Errorf("%w: %s", ErrUnknownSeller, c.Seller)
		}
		if err := st.graph.AddBase(string(c.Dataset)); err != nil {
			return evs, fmt.Errorf("%w: dataset %s", ErrDuplicateID, c.Dataset)
		}
		i := st.intern(c.Dataset)
		st.engines[i] = st.newEngine(c.Dataset)
		st.owners[c.Dataset] = c.Seller
		acct.datasets = append(acct.datasets, c.Dataset)
		return append(evs, Event{Kind: EvDatasetAdded, Seller: c.Seller, Dataset: c.Dataset}), nil

	case ComposeDataset:
		if c.Dataset == "" {
			return evs, ErrEmptyID
		}
		parts := make([]string, len(c.Constituents))
		for i, p := range c.Constituents {
			parts[i] = string(p)
		}
		if err := st.graph.AddDerived(string(c.Dataset), parts...); err != nil {
			switch {
			case errors.Is(err, provenance.ErrExists):
				return evs, fmt.Errorf("%w: dataset %s", ErrDuplicateID, c.Dataset)
			case errors.Is(err, provenance.ErrUnknown):
				return evs, fmt.Errorf("%w: %v", ErrUnknownDataset, err)
			default:
				return evs, err
			}
		}
		i := st.intern(c.Dataset)
		st.engines[i] = st.newEngine(c.Dataset)
		st.leaves[i], _ = st.graph.Leaves(string(c.Dataset))
		return append(evs, Event{Kind: EvDatasetAdded, Dataset: c.Dataset, Derived: true}), nil

	case WithdrawDataset:
		acct, ok := st.sellers[c.Seller]
		if !ok {
			return evs, fmt.Errorf("%w: %s", ErrUnknownSeller, c.Seller)
		}
		owner, ok := st.owners[c.Dataset]
		if !ok {
			return evs, fmt.Errorf("%w: %s is not a base dataset", ErrUnknownDataset, c.Dataset)
		}
		if owner != c.Seller {
			return evs, fmt.Errorf("%w: %s does not own %s", ErrUnknownSeller, c.Seller, c.Dataset)
		}
		deps, err := st.graph.Dependents(string(c.Dataset))
		if err != nil {
			return evs, err
		}
		for _, d := range deps {
			if d != string(c.Dataset) {
				return evs, fmt.Errorf("%w: %s is still part of %s", ErrDatasetInUse, c.Dataset, d)
			}
		}
		if err := st.graph.Remove(string(c.Dataset)); err != nil {
			return evs, err
		}
		st.engines[st.index[c.Dataset]] = nil // the name keeps its index
		delete(st.owners, c.Dataset)
		for i, d := range acct.datasets {
			if d == c.Dataset {
				acct.datasets = append(acct.datasets[:i], acct.datasets[i+1:]...)
				break
			}
		}
		return append(evs, Event{Kind: EvDatasetRemoved, Seller: c.Seller, Dataset: c.Dataset}), nil

	case Tick:
		st.clock++
		return append(evs, Event{Kind: EvTicked, Period: st.clock}), nil

	case SubmitBid:
		ev, err := st.applyBid(c.Buyer, c.Dataset, c.Amount)
		if err != nil {
			return evs, err
		}
		return append(evs, ev), nil

	case BidBatch:
		for _, b := range c.Bids {
			ev, err := st.applyBid(b.Buyer, b.Dataset, b.Amount)
			if err != nil {
				return evs, err
			}
			evs = append(evs, ev)
		}
		return evs, nil

	case Settle:
		return evs, ErrNotMarket

	default: // not one of the nine; %T would make cmd escape
		return evs, fmt.Errorf("%w: no command", ErrUnknownOp)
	}
}

// ApplyBid is Apply for one SubmitBid without boxing the command into
// the Command interface or its event into a slice — each a heap
// allocation per call, on the one path the market takes millions of
// times a second.
func ApplyBid(st *State, c SubmitBid) (Event, error) {
	return st.applyBid(c.Buyer, c.Dataset, c.Amount)
}

// ApplyEncoded is Apply for a binary-encoded command — a journal record's
// payload, or a request's body in the commit stage — appending the
// events to evs. A bid is read by resolveBid, which allocates nothing
// when the state has registered both names; other opcodes, and a
// malformed bid's error, come from DecodeBinary.
func ApplyEncoded(st *State, payload []byte, evs []Event) ([]Event, error) {
	if len(payload) > 0 && payload[0] == bopBid {
		if c, err := resolveBid(st, payload); err == nil {
			return apply(st, c, evs)
		}
	}
	cmd, err := DecodeBinary(payload)
	if err != nil {
		return evs, err
	}
	return apply(st, cmd, evs)
}

// resolveBid reads a bid's binary encoding under the state's spellings,
// looked up from the bytes (a map index by string(b) copies nothing), or
// as sent unless both names are registered. It needs Apply's exclusive
// access.
func resolveBid(st *State, payload []byte) (SubmitBid, error) {
	if len(payload) == 0 || payload[0] != bopBid {
		return SubmitBid{}, fmt.Errorf("%w: not a bid", ErrMalformed)
	}
	buyer, dataset, amount, err := readBid(payload)
	acct, known := st.buyers[BuyerID(buyer)]
	i, indexed := st.index[DatasetID(dataset)]
	if known && indexed {
		return SubmitBid{Buyer: acct.id, Dataset: st.names[i], Amount: amount}, err
	}
	return SubmitBid{Buyer: BuyerID(buyer), Dataset: DatasetID(dataset), Amount: amount}, err
}

var errNonFinite = fmt.Errorf("%w: non-finite amount", ErrMalformed)

// applyBid is the bid rule: cadence and Time-Shield checks against the
// buyer's account, one engine interaction (plus demand propagation to
// the leaves of a derived dataset), then the money movement of a win.
// A NaN or infinite amount is malformed, as every path that encodes the
// bid finds it: no record can carry it, and a bid the log cannot hold
// must not move state.
func (st *State) applyBid(buyer BuyerID, dataset DatasetID, amount float64) (Event, error) {
	if math.IsNaN(amount) || math.IsInf(amount, 0) {
		return Event{}, errNonFinite
	}
	if !(amount > 0) {
		return Event{}, ErrBadBid
	}
	acct, ok := st.buyers[buyer]
	if !ok {
		return Event{}, fmt.Errorf("%w: %s", ErrUnknownBuyer, buyer)
	}
	idx, eng := st.engine(dataset)
	if eng == nil {
		return Event{}, fmt.Errorf("%w: %s", ErrUnknownDataset, dataset)
	}
	// From here on, the spellings the state registered: the event
	// outlives the request, and its strings must not.
	buyer, dataset = acct.id, st.names[idx]

	leaves := st.leaves[idx] // demand-propagation targets (Figure 1, step 2)

	clock := st.clock

	p := acct.record(idx) // a new record passes every check below
	switch {
	case p.flags&acquired != 0:
		return Event{}, fmt.Errorf("%w: %s", ErrAlreadyAcquired, dataset)
	case p.flags&hasLastBid != 0 && p.lastBid == clock:
		return Event{}, fmt.Errorf("%w: period %d", ErrBidTooSoon, clock)
	case clock < p.blockedUntil:
		return Event{}, fmt.Errorf("%w: %d periods remain", ErrWaitActive, p.blockedUntil-clock)
	}
	p.lastBid, p.flags = clock, p.flags|hasLastBid

	d := eng.SubmitBid(amount)
	for _, leaf := range leaves {
		if _, le := st.engine(DatasetID(leaf)); le != nil {
			le.Observe(amount)
		}
	}

	ev := Event{
		Kind:    EvBidDecided,
		Buyer:   buyer,
		Dataset: dataset,
		Amount:  amount,
		Period:  clock,
		Leaves:  leaves,
	}
	if !d.Allocated {
		p.blockedUntil, p.flags = clock+d.Wait, p.flags|hasBlockedUntil
		ev.Decision = Decision{WaitPeriods: d.Wait}
		return ev, nil
	}

	price := FromFloat(d.Price)
	p.flags |= hasAcquired | acquired
	acct.spent += price
	st.revenue += price
	ev.Paid = st.paySellers(dataset, leaves, price)
	st.txs = append(st.txs, txRec{price, clock, acct.index, idx})
	ev.Decision = Decision{Allocated: true, PricePaid: price}
	return ev, nil
}
