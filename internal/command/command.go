// Package command is the deterministic core of the data market: a
// closed set of typed commands, canonical JSON and binary encodings for
// them, and a single Apply function that is the only code in the
// repository allowed to mutate market state.
//
// Everything above it is a shell around the same state machine:
//
//   - the live market (internal/market) is a single-writer shell — one
//     applier at a time runs Apply and publishes lock-free read views;
//   - journal replay (internal/journal) upgrades recorded events to
//     commands and runs Apply in a loop;
//   - the torture harness's reference model (internal/torture) runs the
//     same Apply single-threaded.
//
// Because all three paths share Apply, "the replay matches the live
// market" and "the reference matches the live market" are structural
// facts rather than properties each test must re-establish against a
// hand-mirrored copy of the rules.
//
// # Determinism
//
// Apply is deterministic: the same command sequence applied to states
// built from the same Config yields byte-identical canonical snapshots.
// All randomness flows through per-dataset engine seeds derived from
// Config.Seed and the dataset ID, so scheduling cannot influence
// outcomes — provided commands reach Apply one at a time, in the order
// the journal records them. That ordering is the caller's contract; see
// State.
package command

// Op names one command kind. The values double as the journal's
// on-disk op names, so a journal record's "op" field and a command's
// Op() agree by construction.
type Op string

// The closed command set.
const (
	OpRegisterBuyer  Op = "register_buyer"
	OpRegisterSeller Op = "register_seller"
	OpUpload         Op = "upload"
	OpCompose        Op = "compose"
	OpWithdraw       Op = "withdraw"
	OpBid            Op = "bid"
	OpBidBatch       Op = "bid_batch"
	OpTick           Op = "tick"
)

// Command is one market mutation. The set of implementations is closed:
// exactly the eight types below, one per Op value.
type Command interface {
	// Op returns the command's kind name (also its wire name).
	Op() Op
	isCommand()
}

// RegisterBuyer adds a buyer account.
type RegisterBuyer struct {
	Buyer BuyerID
}

// RegisterSeller adds a seller account.
type RegisterSeller struct {
	Seller SellerID
}

// UploadDataset registers a base dataset shared by Seller and starts
// pricing it.
type UploadDataset struct {
	Seller  SellerID
	Dataset DatasetID
}

// ComposeDataset registers a derived dataset assembled from existing
// datasets and starts pricing it.
type ComposeDataset struct {
	Dataset      DatasetID
	Constituents []DatasetID
}

// WithdrawDataset removes a base dataset its seller no longer shares.
type WithdrawDataset struct {
	Seller  SellerID
	Dataset DatasetID
}

// SubmitBid places one bid at the current period.
type SubmitBid struct {
	Buyer   BuyerID
	Dataset DatasetID
	Amount  float64
}

// BidBatch applies the bids of one batch submission strictly in order.
// It records a batch as a single journal event; the bids it carries are
// exactly the ones that succeeded when the batch was first applied.
type BidBatch struct {
	Bids []SubmitBid
}

// Tick advances the market clock by one period.
type Tick struct{}

// Op implements Command.
func (RegisterBuyer) Op() Op   { return OpRegisterBuyer }
func (RegisterSeller) Op() Op  { return OpRegisterSeller }
func (UploadDataset) Op() Op   { return OpUpload }
func (ComposeDataset) Op() Op  { return OpCompose }
func (WithdrawDataset) Op() Op { return OpWithdraw }
func (SubmitBid) Op() Op       { return OpBid }
func (BidBatch) Op() Op        { return OpBidBatch }
func (Tick) Op() Op            { return OpTick }

func (RegisterBuyer) isCommand()   {}
func (RegisterSeller) isCommand()  {}
func (UploadDataset) isCommand()   {}
func (ComposeDataset) isCommand()  {}
func (WithdrawDataset) isCommand() {}
func (SubmitBid) isCommand()       {}
func (BidBatch) isCommand()        {}
func (Tick) isCommand()            {}
