package client

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/market"
)

// serverBodies returns the hot bodies an httpapi server answers, by
// name: a period, a tick, a seller's balance, a loser's wait, a
// dataset's stats, and a winning and a losing bid's decision.
func serverBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	h := httpapi.NewServer(testMarket(tb)).Routes()
	out := map[string][]byte{}
	for _, step := range []struct{ name, method, path, body string }{
		{"", "POST", "/v1/sellers", `{"id":"s1"}`},
		{"", "POST", "/v1/datasets", `{"seller":"s1","id":"ds-a"}`},
		{"", "POST", "/v1/buyers", `{"id":"winner"}`},
		{"", "POST", "/v1/buyers", `{"id":"loser"}`},
		{"win", "POST", "/v1/bids", `{"buyer":"winner","dataset":"ds-a","amount":150.25}`},
		{"loss", "POST", "/v1/bids", `{"buyer":"loser","dataset":"ds-a","amount":2}`},
		{"tick", "POST", "/v1/tick", `{}`},
		{"period", "GET", "/v1/period", ""},
		{"balance", "GET", "/v1/sellers/s1/balance", ""},
		{"wait", "GET", "/v1/buyers/loser/wait?dataset=ds-a", ""},
		{"stats", "GET", "/v1/datasets/ds-a/stats", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
		if rec.Code >= 300 {
			tb.Fatalf("%s %s: %d %s", step.method, step.path, rec.Code, rec.Body)
		}
		if step.name != "" {
			out[step.name] = rec.Body.Bytes()
		}
	}
	return out
}

// TestHotBodiesDecodeWithoutAllocating: decodeObject reads every hot
// body the server sends without allocating, but for the one string it
// returns, a stats body's dataset name (Go interns a one-byte one).
func TestHotBodiesDecodeWithoutAllocating(t *testing.T) {
	bodies := serverBodies(t)
	var n int
	var bal float64
	var st market.DatasetStats
	var d httpDecision
	decision := func(b []byte) error { return decodeObject(b, decisionMembers(&d)...) }
	for _, tc := range []struct {
		name   string
		budget float64
		decode func([]byte) error
	}{
		{"period", 0, func(b []byte) error { return decodeObject(b, member{"period", &n}) }},
		{"tick", 0, func(b []byte) error { return decodeObject(b, member{"period", &n}) }},
		{"wait", 0, func(b []byte) error { return decodeObject(b, member{"wait_periods", &n}) }},
		{"balance", 0, func(b []byte) error { return decodeObject(b, member{"balance", &bal}) }},
		{"win", 0, decision},
		{"loss", 0, decision},
		{"stats", 1, func(b []byte) error { return decodeObject(b, statsMembers(&st)...) }},
	} {
		body := bodies[tc.name]
		if err := tc.decode(body); err != nil {
			t.Fatalf("%s body %s: %v", tc.name, body, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = tc.decode(body) }); got > tc.budget {
			t.Errorf("decoding a %s body allocates %.1f times, want <= %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("decoding a %s body allocates %.1f times", tc.name, got)
		}
	}
	if st.Dataset != "ds-a" || st.Bids != 2 || d.WaitPeriods == 0 || bal == 0 {
		t.Errorf("decoded stats %+v, loss %+v, balance %v", st, d, bal)
	}
}

// decisionMembers and statsMembers are the members SubmitBid and Stats
// pass to decodeObject.
func decisionMembers(d *httpDecision) []member {
	return []member{{"allocated", &d.Allocated}, {"price_paid", &d.PricePaid}, {"wait_periods", &d.WaitPeriods}}
}

func statsMembers(st *market.DatasetStats) []member {
	return []member{{"Dataset", (*string)(&st.Dataset)}, {"Bids", &st.Bids}, {"Allocations", &st.Allocations},
		{"Epochs", &st.Epochs}, {"Revenue", &st.Revenue}, {"PostingPrice", &st.PostingPrice}, {"MostLikelyPrice", &st.MostLikelyPrice}}
}

// The tagged structs json.Unmarshal fills for the hot bodies.
type (
	periodBody struct {
		Period int `json:"period"`
	}
	waitBody struct {
		WaitPeriods int `json:"wait_periods"`
	}
	balanceBody struct {
		Balance float64 `json:"balance"`
	}
	decisionBody struct {
		Allocated   bool    `json:"allocated"`
		PricePaid   float64 `json:"price_paid"`
		WaitPeriods int     `json:"wait_periods"`
	}
)

// hotShapes decode a body both ways — decodeObject with the members the
// client passes, json.Unmarshal into the tagged struct — from the same
// non-zero start, so that a null visibly changes nothing.
var hotShapes = map[string]func(b []byte) (got, want any, gotErr, wantErr error){
	"period": func(b []byte) (any, any, error, error) {
		got, want := 7, periodBody{7}
		gotErr, wantErr := decodeObject(b, member{"period", &got}), json.Unmarshal(b, &want)
		return periodBody{got}, want, gotErr, wantErr
	},
	"wait": func(b []byte) (any, any, error, error) {
		got, want := 7, waitBody{7}
		gotErr, wantErr := decodeObject(b, member{"wait_periods", &got}), json.Unmarshal(b, &want)
		return waitBody{got}, want, gotErr, wantErr
	},
	"balance": func(b []byte) (any, any, error, error) {
		got, want := 7.5, balanceBody{7.5}
		gotErr, wantErr := decodeObject(b, member{"balance", &got}), json.Unmarshal(b, &want)
		return balanceBody{got}, want, gotErr, wantErr
	},
	"decision": func(b []byte) (any, any, error, error) {
		got, want := httpDecision{Allocated: true, PricePaid: 1, WaitPeriods: 2}, decisionBody{true, 1, 2}
		gotErr, wantErr := decodeObject(b, decisionMembers(&got)...), json.Unmarshal(b, &want)
		return decisionBody{got.Allocated, got.PricePaid, got.WaitPeriods}, want, gotErr, wantErr
	},
	"stats": func(b []byte) (any, any, error, error) {
		start := market.DatasetStats{Dataset: "x", Bids: 1, Allocations: 2, Epochs: 3, Revenue: 4, PostingPrice: 5, MostLikelyPrice: 6}
		got, want := start, start
		gotErr, wantErr := decodeObject(b, statsMembers(&got)...), json.Unmarshal(b, &want)
		return got, want, gotErr, wantErr
	},
}

// FuzzDecodeObjectMatchesUnmarshal holds decodeObject to its contract:
// for any bytes, every hot shape's decodeObject and json.Unmarshal into
// the tagged struct agree on whether they fail and, when neither does,
// on every field.
func FuzzDecodeObjectMatchesUnmarshal(f *testing.F) {
	for _, b := range serverBodies(f) {
		f.Add(b)
	}
	for _, s := range []string{
		" \t\n{ \"period\" : 1 , \"balance\" : 2.5 }\r\n", `{"PERIOD":1}`, `{"period":1}`, `{"Period":1,"period":2}`,
		`{"period":1,"period":null}`, `null`, ` null `, `{}`, `[]`, `1`, `"period"`, `true`,
		`{"x":{"period":[1,{"a":"}"}]},"period":3,"y":[]}`, `{"period":1.0}`, `{"period":1e2}`, `{"balance":1e400}`,
		`{"period":"1"}`, `{"allocated":1}`, `{"allocated":false,"price_paid":-0}`, `{"Dataset":"a\xffb"}`,
		`{"Dataset":"aé\n\"b"}`, `{"period":4}`, "{\"\xff\":1}", `{"wait_Kperiods":1}`,
		`{"Dataſet":"k","Bids":9223372036854775807,"Epochs":9223372036854775808}`, `{"period":1}x`, ``, `{"period":`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, shape := range hotShapes {
			got, want, gotErr, wantErr := shape(b)
			if (gotErr == nil) != (wantErr == nil) || gotErr == nil && got != want {
				t.Fatalf("%s body %q: decodeObject = %+v, %v; json.Unmarshal = %+v, %v", name, b, got, gotErr, want, wantErr)
			}
		}
	})
}

// BenchmarkHTTPRead times the four reads of the benchmark's read mix
// through the HTTP client against an in-process server, allocations
// reported: client and server together, net/http included.
func BenchmarkHTTPRead(b *testing.B) {
	srv := httptest.NewServer(httpapi.NewServer(testMarket(b)).Routes())
	defer srv.Close()
	c := NewHTTP(srv.URL, WithHTTPDoer(srv.Client()))
	ctx := context.Background()
	_, err := c.RegisterBuyer(ctx, "loser")
	for _, e := range []error{err, c.RegisterSeller(ctx, "s1"), c.UploadDataset(ctx, "s1", "a")} {
		if e != nil {
			b.Fatal(e)
		}
	}
	if _, err := c.SubmitBid(ctx, "loser", "a", 2); err != nil {
		b.Fatal(err)
	}
	for _, read := range []struct {
		name string
		call func() error
	}{
		{"Period", func() error { _, err := c.Period(ctx); return err }},
		{"WaitRemaining", func() error { _, err := c.WaitRemaining(ctx, "loser", "a"); return err }},
		{"SellerBalance", func() error { _, err := c.SellerBalance(ctx, "s1"); return err }},
		{"Stats", func() error { _, err := c.Stats(ctx, "a"); return err }},
	} {
		b.Run(read.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := read.call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
