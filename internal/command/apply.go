package command

import (
	"errors"
	"fmt"
	"math"

	"github.com/datamarket/shield/internal/binenc"
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
		if err := st.checkName(c.Dataset); err != nil {
			return evs, err
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
		if err := st.checkName(c.Dataset); err != nil {
			return evs, err
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
		if st.clock >= MaxPeriod-1 {
			return evs, ErrClockExhausted
		}
		st.clock++
		return append(evs, Event{Kind: EvTicked, Period: st.clock}), nil

	case SubmitBid:
		ev, err := st.submitBid(c)
		if err != nil {
			return evs, err
		}
		return append(evs, ev), nil

	case BidBatch:
		for _, b := range c.Bids {
			ev, err := st.submitBid(b)
			if err != nil {
				return evs, err
			}
			evs = append(evs, ev)
		}
		return evs, nil

	default: // not one of the eight; %T would make cmd escape
		return evs, fmt.Errorf("%w: no command", ErrUnknownOp)
	}
}

// submitBid resolves a bid's names and runs the bid rule.
func (st *State) submitBid(c SubmitBid) (Event, error) {
	i, indexed := st.index[c.Dataset]
	return st.applyBid(c, st.buyers[c.Buyer], i, indexed)
}

// ApplyEncoded is Apply for a binary-encoded command — a journal record's
// payload, or a request's body in the commit stage — appending the
// events to evs. Every opcode decodes into its concrete command, which
// apply takes boxed on the stack, so a registration allocates only the
// names the state keeps. Errors are DecodeBinary's, then Apply's.
func ApplyEncoded(st *State, payload []byte, evs []Event) ([]Event, error) {
	if len(payload) == 0 {
		_, err := DecodeBinary(payload)
		return evs, err
	}
	var cmd Command
	c := binenc.Decoder(payload[1:])
	switch payload[0] {
	case bopBid:
		ev, err := applyEncodedBid(st, payload)
		if err != nil {
			return evs, err
		}
		return append(evs, ev), nil
	case bopRegisterBuyer:
		cmd = RegisterBuyer{}.walk(c)
	case bopRegisterSeller:
		cmd = RegisterSeller{}.walk(c)
	case bopUpload:
		cmd = UploadDataset{}.walk(c)
	case bopCompose:
		cmd = ComposeDataset{}.walk(c)
	case bopWithdraw:
		cmd = WithdrawDataset{}.walk(c)
	case bopBidBatch:
		cmd = BidBatch{}.walk(c)
	case bopTick:
		cmd = Tick{}
	default:
		return evs, fmt.Errorf("%w: opcode %d", ErrUnknownOp, payload[0])
	}
	if err := done(c); err != nil {
		return evs, err
	}
	return apply(st, cmd, evs)
}

// applyEncodedBid runs the bid rule on a bid's binary encoding, its
// names looked up from the bytes (a map index by string(b) copies
// nothing) and copied only for a refusal to spell. It needs Apply's
// exclusive access.
func applyEncodedBid(st *State, payload []byte) (Event, error) {
	buyer, dataset, amount, err := readBid(payload)
	if err != nil {
		return Event{}, err
	}
	acct, c := st.buyers[BuyerID(buyer)], SubmitBid{Amount: amount}
	i, indexed := st.index[DatasetID(dataset)]
	if acct == nil || !indexed || st.engines[i] == nil {
		c.Buyer, c.Dataset = BuyerID(buyer), DatasetID(dataset)
	}
	return st.applyBid(c, acct, i, indexed)
}

var errNonFinite = fmt.Errorf("%w: non-finite amount", ErrMalformed)

// applyBid is the bid rule, on names the caller resolved: acct is the
// buyer's account, nil if unregistered, and idx the dataset's index if
// indexed; c's names only spell a refusal. Cadence and Time-Shield
// checks against the account, one engine interaction (plus demand
// propagation to the leaves of a derived dataset), then the money
// movement of a win. A NaN or infinite amount is malformed, as every
// path that encodes the bid finds it: no record can carry it, and a bid
// the log cannot hold must not move state.
func (st *State) applyBid(c SubmitBid, acct *buyerAccount, idx uint32, indexed bool) (Event, error) {
	if math.IsNaN(c.Amount) || math.IsInf(c.Amount, 0) {
		return Event{}, errNonFinite
	}
	if !(c.Amount > 0) {
		return Event{}, ErrBadBid
	}
	if acct == nil {
		return Event{}, fmt.Errorf("%w: %s", ErrUnknownBuyer, c.Buyer)
	}
	if !indexed || st.engines[idx] == nil {
		return Event{}, fmt.Errorf("%w: %s", ErrUnknownDataset, c.Dataset)
	}
	// From here on, the spellings the state registered: the event
	// outlives the request, and its strings must not.
	buyer, dataset := acct.id, st.names[idx]

	leaves := st.leaves[idx] // demand-propagation targets (Figure 1, step 2)

	clock := st.clock

	p := acct.record(idx) // a new record passes every check below
	switch {
	case p.key&acquired != 0:
		return Event{}, fmt.Errorf("%w: %s", ErrAlreadyAcquired, dataset)
	case p.key&hasLastBid != 0 && int(p.lastBid) == clock:
		return Event{}, fmt.Errorf("%w: period %d", ErrBidTooSoon, clock)
	case clock < int(p.blockedUntil):
		return Event{}, fmt.Errorf("%w: %d periods remain", ErrWaitActive, int(p.blockedUntil)-clock)
	}
	p.lastBid, p.key = int32(clock), p.key|hasLastBid

	d := st.engines[idx].SubmitBid(c.Amount)
	for _, leaf := range leaves {
		if _, le := st.engine(DatasetID(leaf)); le != nil {
			le.Observe(c.Amount)
		}
	}

	ev := Event{
		Kind:    EvBidDecided,
		Buyer:   buyer,
		Dataset: dataset,
		Amount:  c.Amount,
		Period:  clock,
		Leaves:  leaves,
	}
	if !d.Allocated {
		p.blockedUntil, p.key = WaitEnd(clock, d.Wait), p.key|hasBlockedUntil
		ev.Decision = Decision{WaitPeriods: d.Wait}
		return ev, nil
	}

	price := FromFloat(d.Price)
	p.key |= hasAcquired | acquired
	acct.spent += price
	st.revenue += price
	ev.Paid = st.paySellers(dataset, leaves, price)
	st.appendSale(txRec{price, acct.index, idx}, clock)
	ev.Decision = Decision{Allocated: true, PricePaid: price}
	return ev, nil
}
