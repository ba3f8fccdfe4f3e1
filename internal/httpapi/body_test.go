package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/wire"
)

// serve runs one request through h and returns the recorded response.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestReadBodiesAreByteStable pins the exact bytes of the one-field
// bodies — period, tick, balance, wait — whatever Go type the handlers
// encode them from.
func TestReadBodiesAreByteStable(t *testing.T) {
	h := NewServer(market.MustNew(testConfig())).Routes()
	for _, step := range [][2]string{
		{"/v1/sellers", `{"id":"s1"}`}, {"/v1/datasets", `{"seller":"s1","id":"a"}`},
		{"/v1/buyers", `{"id":"winner"}`}, {"/v1/buyers", `{"id":"loser"}`},
		{"/v1/bids", `{"buyer":"winner","dataset":"a","amount":150}`},
		{"/v1/bids", `{"buyer":"loser","dataset":"a","amount":2}`},
	} {
		if rec := serve(h, "POST", step[0], step[1]); rec.Code >= 300 {
			t.Fatalf("setup %s %s: %d %s", step[0], step[1], rec.Code, rec.Body)
		}
	}
	for _, tc := range []struct{ method, path, body, want string }{
		{"GET", "/v1/period", "", `{"period":0}`},
		{"POST", "/v1/tick", `{}`, `{"period":1}`},
		{"GET", "/v1/period", "", `{"period":1}`},
		{"GET", "/v1/sellers/s1/balance", "", `{"balance":10}`},
		{"GET", "/v1/buyers/loser/wait?dataset=a", "", `{"wait_periods":257}`},
	} {
		if got := serve(h, tc.method, tc.path, tc.body).Body.String(); got != tc.want+"\n" {
			t.Errorf("%s %s = %q, want %q", tc.method, tc.path, got, tc.want+"\n")
		}
	}
}

// TestOversizedBodyIsRefused pins the request body limit at the wire
// protocol's frame limit: a bid body of wire.MaxFrame bytes is read, one
// byte more is refused with 413 and the bad_request envelope, and so a
// request costs a small multiple of the limit however large its body —
// about 4 MiB, the JSON decoder's doubling buffer. (Unbounded, a 16 MiB
// bid allocated 160 MiB and was answered unknown_buyer with the 16 MiB
// name echoed.)
func TestOversizedBodyIsRefused(t *testing.T) {
	h := NewServer(market.MustNew(testConfig())).Routes()
	bid := func(n int) []byte { // a bid body n bytes long
		head, tail := `{"buyer":"`, `","dataset":"d","amount":5}`
		return []byte(head + strings.Repeat("x", n-len(head)-len(tail)) + tail)
	}
	if rec := serve(h, "POST", "/v1/bids", string(bid(wire.MaxFrame))); rec.Code != http.StatusNotFound {
		t.Fatalf("a %d-byte bid answered %d, want 404 (unknown buyer)", wire.MaxFrame, rec.Code)
	}
	for _, n := range []int{wire.MaxFrame + 1, 16 << 20} {
		req := httptest.NewRequest("POST", "/v1/bids", bytes.NewReader(bid(n)))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
			t.Fatalf("a %d-byte bid answered %d %.200s, want 413 with a bad_request envelope", n, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*wire.MaxFrame {
			t.Fatalf("a %d-byte bid allocated %d bytes, want <= %d", n, got, 8*wire.MaxFrame)
		} else {
			t.Logf("a %d-byte bid allocated %d bytes", n, got)
		}
	}
}

// TestDataAfterTheBodyIsRefused: a request body is one JSON value and
// whitespace. Anything after it is refused with 400 bad_request before
// the command runs, where it was ignored — the bid applied, the second
// registration silently dropped.
func TestDataAfterTheBodyIsRefused(t *testing.T) {
	m := market.MustNew(testConfig())
	h := NewServer(m).Routes()
	for _, step := range [][2]string{
		{"/v1/sellers", `{"id":"s1"}`}, {"/v1/datasets", `{"seller":"s1","id":"a"}`},
		{"/v1/buyers", "{\"id\":\"w\"} \n\t"},
	} {
		if rec := serve(h, "POST", step[0], step[1]); rec.Code != http.StatusCreated {
			t.Fatalf("setup %s %s: %d %s", step[0], step[1], rec.Code, rec.Body)
		}
	}
	for _, tc := range [][2]string{
		{"/v1/bids", `{"buyer":"w","dataset":"a","amount":150}garbage`},
		{"/v1/buyers", `{"id":"a"} {"id":"b"}`},
		{"/v1/buyers", `{"id":"a"}}`},
	} {
		rec := serve(h, "POST", tc[0], tc[1])
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
			t.Errorf("POST %s %s = %d %s, want 400 bad_request", tc[0], tc[1], rec.Code, rec.Body)
		}
	}
	if n := len(m.Transactions()); n != 0 {
		t.Errorf("a refused bid was applied: %d transactions", n)
	}
	for _, id := range []market.BuyerID{"a", "b"} {
		if _, err := m.WaitRemaining(id, "a"); err == nil {
			t.Errorf("a refused registration added buyer %q", id)
		}
	}
}
