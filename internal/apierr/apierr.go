// Package apierr is the serving surface's stable error vocabulary and
// the rules that refuse a request, shared by every transport (HTTP/JSON
// in internal/httpapi, the binary wire protocol in internal/wire): the
// operator gate, the batch cap, a replica's refusal of writes. Each
// failed request carries exactly one machine-readable code from the
// closed set below; clients branch on the code, never on the message
// text. The codes are part of the v1 API contract and are re-exported
// from the shield facade.
package apierr

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"

	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
)

// MaxRequest bounds a request's bytes on either transport: an HTTP body
// (413 past it) and a wire frame's payload (wire.MaxFrame).
const MaxRequest = 1 << 20

// Stable machine-readable error codes.
const (
	CodeDuplicateID     = "duplicate_id"
	CodeUnknownBuyer    = "unknown_buyer"
	CodeUnknownSeller   = "unknown_seller"
	CodeUnknownDataset  = "unknown_dataset"
	CodeBadBid          = "bad_bid"
	CodeBidTooSoon      = "bid_too_soon"
	CodeBlockedUntil    = "blocked_until"
	CodeAlreadyAcquired = "already_acquired"
	CodeDatasetInUse    = "dataset_in_use"
	CodeEmptyID         = "empty_id"
	CodeUnauthorized    = "unauthorized"
	CodeBadRequest      = "bad_request"
	CodeInternal        = "internal"
	// CodeReadOnlyReplica rejects a mutating request sent to a read
	// replica: the write path lives on the leader.
	CodeReadOnlyReplica = "read_only_replica"
	// CodeReplicaUnavailable rejects a read on a replica that has not
	// completed its first catch-up (or has diverged) and so has no
	// state to serve.
	CodeReplicaUnavailable = "replica_unavailable"
)

// Replica-serving sentinels; transports classify them like any market
// error.
var (
	// ErrReadOnlyReplica is returned for every mutating operation on a
	// read replica.
	ErrReadOnlyReplica = errors.New("read-only replica: send writes to the leader")
	// ErrReplicaUnavailable is returned for reads before a replica's
	// first catch-up completes.
	ErrReplicaUnavailable = errors.New("replica has no state yet: first catch-up pending")
)

// APIError is one request's failure as the serving surface reports it:
// a stable code plus the originating error's message. Over HTTP it is
// the body of the {"error":{...}} envelope; over the wire protocol it
// is the payload of an error frame.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error returns the message exactly as the server-side error produced
// it — no code prefix, no decoration — so a client that round-trips an
// operation through a transport observes the same error string an
// in-process caller would (the torture harness pins this).
func (e *APIError) Error() string { return e.Message }

// BadRequest is a refusal of the request itself, worded where it is found.
func BadRequest(msg string) error {
	return &APIError{Code: CodeBadRequest, Message: msg}
}

// CapBatch refuses a bid batch of n bids, whole, past command.MaxBatchBids.
func CapBatch(n int) error {
	if n > command.MaxBatchBids {
		return BadRequest(fmt.Sprintf("batch exceeds %d bids", command.MaxBatchBids))
	}
	return nil
}

// ReadOnly is a read replica's write path: every write, and every slot
// of a batch, is refused with ErrReadOnlyReplica.
type ReadOnly struct{}

func (ReadOnly) ApplyEncodedCtx(_ context.Context, _ []byte, res []market.BidResult) (command.Event, error) {
	for i := range res {
		res[i].Err = ErrReadOnlyReplica
	}
	return command.Event{}, ErrReadOnlyReplica
}

// Gate is the operator gate in front of what Uncertainty-Shield keeps
// from buyers: the posting price in a dataset's stats, and over HTTP the
// metrics and traces. It is closed when bid auth or an operator token is
// configured, and a closed gate opens only to the token's bearer (with
// no token, to nobody); an open gate is a development deployment.
type Gate struct {
	closed bool
	token  string
}

var (
	errLocked = errors.New("operator endpoints locked: no operator token configured")
	errToken  = errors.New("operator token required")
)

// NewGate returns the gate of a server with bid auth on or off and
// operator token token ("" for none).
func NewGate(auth bool, token string) Gate {
	return Gate{closed: auth || token != "", token: token}
}

// Admit refuses a request presenting bearer ("" for none) that g does not
// let pass, comparing in constant time and never telling a wrong token
// from a missing one.
func (g Gate) Admit(bearer string) error {
	switch {
	case g.closed && g.token == "":
		return errLocked
	case g.closed && subtle.ConstantTimeCompare([]byte(bearer), []byte(g.token)) != 1:
		return errToken
	}
	return nil
}

// Stats is the one operator-only read, on either transport: m's stats of
// dataset id, for a bearer g admits. The wire protocol carries no
// credentials, so over wire a closed gate refuses it.
func (g Gate) Stats(m interface {
	Stats(market.DatasetID) (market.DatasetStats, error)
}, bearer string, id market.DatasetID) (market.DatasetStats, error) {
	if err := g.Admit(bearer); err != nil {
		return market.DatasetStats{}, err
	}
	return m.Stats(id)
}

// Classify maps an error to its stable code and the HTTP status the
// JSON transport uses for it (the wire transport carries the code
// alone). An *APIError keeps its code; over HTTP it is a 400, as the HTTP
// server builds one only to refuse the request itself (BadRequest).
func Classify(err error) (code string, status int) {
	if ae, ok := err.(*APIError); ok {
		return ae.Code, http.StatusBadRequest
	}
	switch {
	case errors.Is(err, market.ErrUnknownBuyer), errors.Is(err, auth.ErrUnknownBuyer):
		return CodeUnknownBuyer, http.StatusNotFound
	case errors.Is(err, market.ErrUnknownSeller):
		return CodeUnknownSeller, http.StatusNotFound
	case errors.Is(err, market.ErrUnknownDataset):
		return CodeUnknownDataset, http.StatusNotFound
	case errors.Is(err, market.ErrDuplicateID), errors.Is(err, auth.ErrDuplicate):
		return CodeDuplicateID, http.StatusConflict
	case errors.Is(err, market.ErrAlreadyAcquired):
		return CodeAlreadyAcquired, http.StatusConflict
	case errors.Is(err, market.ErrDatasetInUse):
		return CodeDatasetInUse, http.StatusConflict
	case errors.Is(err, market.ErrBadBid):
		return CodeBadBid, http.StatusBadRequest
	case errors.Is(err, market.ErrEmptyID), errors.Is(err, auth.ErrEmptyID):
		return CodeEmptyID, http.StatusBadRequest
	case errors.Is(err, market.ErrBidTooSoon):
		return CodeBidTooSoon, http.StatusTooManyRequests
	case errors.Is(err, market.ErrWaitActive):
		return CodeBlockedUntil, http.StatusTooManyRequests
	case errors.Is(err, auth.ErrBadSignature), errors.Is(err, auth.ErrReplay),
		errors.Is(err, errLocked), errors.Is(err, errToken):
		return CodeUnauthorized, http.StatusUnauthorized
	case errors.Is(err, ErrReadOnlyReplica):
		// 403, not 405: the route exists and the method is right — this
		// process simply never accepts writes.
		return CodeReadOnlyReplica, http.StatusForbidden
	case errors.Is(err, ErrReplicaUnavailable):
		return CodeReplicaUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, command.ErrMalformed), errors.Is(err, command.ErrUnknownOp):
		// Codec-level rejections are client mistakes, not server faults.
		return CodeBadRequest, http.StatusBadRequest
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}
