package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
)

// knownCodes is the closed set of v1 error codes; every rejection the
// API produces must carry one of these.
var knownCodes = map[string]bool{
	apierr.CodeDuplicateID:     true,
	apierr.CodeUnknownBuyer:    true,
	apierr.CodeUnknownSeller:   true,
	apierr.CodeUnknownDataset:  true,
	apierr.CodeBadBid:          true,
	apierr.CodeBidTooSoon:      true,
	apierr.CodeBlockedUntil:    true,
	apierr.CodeAlreadyAcquired: true,
	apierr.CodeDatasetInUse:    true,
	apierr.CodeEmptyID:         true,
	apierr.CodeUnauthorized:    true,
	apierr.CodeBadRequest:      true,
	apierr.CodeInternal:        true,
}

// FuzzBidBatchDecode throws arbitrary bodies at POST /v1/bids/batch.
// The contract under test: the handler never panics, never returns a
// 5xx, rejects bad requests with the versioned error envelope and a
// known code, and answers well-formed batches with one result per
// entry where every per-entry rejection again carries a known code.
func FuzzBidBatchDecode(f *testing.F) {
	// Corpus: the payload shapes the endpoint's tests exercise, plus the
	// classic decoder traps.
	seeds := []string{
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":150}]}`,
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":150},{"buyer":"b2","dataset":"d2","amount":150}]}`,
		// Duplicate (buyer, dataset) pairs: the second entry must fail its
		// slot with bid_too_soon, never the whole batch.
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":5},{"buyer":"b1","dataset":"d1","amount":5}]}`,
		// Negative, zero, and absurd amounts.
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":-3}]}`,
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":0}]}`,
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":1e300}]}`,
		// Unknown participants and datasets.
		`{"bids":[{"buyer":"ghost","dataset":"d1","amount":10}]}`,
		`{"bids":[{"buyer":"b1","dataset":"nope","amount":10}]}`,
		`{"bids":[{"buyer":"","dataset":"","amount":10}]}`,
		// Derived dataset target.
		`{"bids":[{"buyer":"b1","dataset":"c1","amount":80}]}`,
		// Malformed JSON and schema violations.
		`{"bids":[`,
		`{"bids":{}}`,
		`{"bids":[{"buyer":1,"dataset":"d1","amount":"x"}]}`,
		`{"bids":[],"extra":true}`,
		`{"bids":[]}`,
		`[]`,
		`null`,
		``,
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":150,"mystery":1}]}`,
		// Data after the value: refused, never applied.
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":150}]}garbage`,
		`{"bids":[{"buyer":"b1","dataset":"d1","amount":150}]} {"bids":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	m := market.MustNew(market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 9,
	})
	for _, b := range []market.BuyerID{"b1", "b2"} {
		if err := m.RegisterBuyer(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := m.RegisterSeller("s"); err != nil {
		f.Fatal(err)
	}
	for _, d := range []market.DatasetID{"d1", "d2"} {
		if err := m.UploadDataset("s", d); err != nil {
			f.Fatal(err)
		}
	}
	if err := m.ComposeDataset("c1", "d1", "d2"); err != nil {
		f.Fatal(err)
	}
	handler := NewServer(m).Routes()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/bids/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch {
		case rec.Code == http.StatusOK:
			if !json.Valid(body) {
				t.Fatalf("200 for a body that is not one JSON value: %q", body)
			}
			var resp struct {
				Results []batchBidResult `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response is not a results payload: %v\nbody: %s", err, rec.Body.Bytes())
			}
			if len(resp.Results) == 0 {
				t.Fatalf("200 response with empty results for body %q", body)
			}
			for i, r := range resp.Results {
				if r.Error != nil {
					if !knownCodes[r.Error.Code] {
						t.Errorf("entry %d: unknown error code %q", i, r.Error.Code)
					}
					if r.Error.Message == "" {
						t.Errorf("entry %d: empty error message", i)
					}
					continue
				}
				if r.PricePaid < 0 {
					t.Errorf("entry %d: negative price %v", i, r.PricePaid)
				}
				if r.WaitPeriods < 0 {
					t.Errorf("entry %d: negative wait %d", i, r.WaitPeriods)
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("rejection is not an error envelope: %v\nbody: %s", err, rec.Body.Bytes())
			}
			if !knownCodes[env.Error.Code] {
				t.Errorf("unknown error code %q", env.Error.Code)
			}
			if env.Error.Message == "" {
				t.Error("empty error message in envelope")
			}
		default:
			t.Errorf("status %d for body %q: batch decoding must never 5xx", rec.Code, body)
		}
	})
}

// FuzzQueryParamMatchesURLQuery holds queryParam to the map it replaces:
// for any raw query and key it returns what r.URL.Query().Get(key) does.
func FuzzQueryParamMatchesURLQuery(f *testing.F) {
	for _, s := range [][2]string{
		{"dataset=ds-001", "dataset"}, {"seller=acme&seller=other", "seller"},
		{"a=1;dataset=x&dataset=y", "dataset"}, {"dataset=%zz&dataset=ok", "dataset"},
		{"%64ataset=a+b%20c", "dataset"}, {"&=x", ""}, {"id", "id"}, {"", "id"},
		{"id=req-0000002a&id=", "id"}, {"x=%", "x"}, {"k%3D=v=w", "k="},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		if got, want := queryParam(r, key), r.URL.Query().Get(key); got != want {
			t.Fatalf("queryParam(%q, %q) = %q, want %q", raw, key, got, want)
		}
	})
}
