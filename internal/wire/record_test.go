package wire

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
)

// TestRecordIsTheRequest pins what a journaled market records for each
// command kind: the request's own binary encoding, whether it came over
// wire (the frame's body as it arrived) or over HTTP (the handler's one
// encoding of its decoded JSON). The commit hook sees the bytes the
// segment holds, so what replay applies is what the live market applied.
// A bid whose length prefix is padded — decodable by a lenient reader,
// and not its own canonical encoding — is refused at the edge as a
// bad_request and journals nothing. Under -race (ten runs in make race)
// this also proves the stage is done with an HTTP bid's body, which lives
// in the decoded request, before the handler returns.
func TestRecordIsTheRequest(t *testing.T) {
	jm, err := journal.NewMarket(testConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	var (
		mu       sync.Mutex
		payloads [][]byte
	)
	jm.OnCommit(func(rec journal.Record) {
		mu.Lock()
		payloads = append(payloads, bytes.Clone(rec.Payload))
		mu.Unlock()
	})
	recorded := func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return payloads
	}
	c := serveRaw(t, NewServer(jm), nil)
	hs := httptest.NewServer(httpapi.NewJournaled(jm).Routes())
	defer hs.Close()

	type step struct {
		cmd                command.Command
		method, path, body string
	}
	steps := func(p string) []step {
		return []step{
			{command.RegisterSeller{Seller: command.SellerID(p + "s")}, "POST", "/v1/sellers", `{"id":"` + p + `s"}`},
			{command.UploadDataset{Seller: command.SellerID(p + "s"), Dataset: command.DatasetID(p + "d1")}, "POST", "/v1/datasets", `{"seller":"` + p + `s","id":"` + p + `d1"}`},
			{command.UploadDataset{Seller: command.SellerID(p + "s"), Dataset: command.DatasetID(p + "d2")}, "POST", "/v1/datasets", `{"seller":"` + p + `s","id":"` + p + `d2"}`},
			{command.ComposeDataset{Dataset: command.DatasetID(p + "c"), Constituents: []command.DatasetID{command.DatasetID(p + "d1")}}, "POST", "/v1/datasets/compose", `{"id":"` + p + `c","constituents":["` + p + `d1"]}`},
			{command.RegisterBuyer{Buyer: command.BuyerID(p + "b")}, "POST", "/v1/buyers", `{"id":"` + p + `b"}`},
			{command.SubmitBid{Buyer: command.BuyerID(p + "b"), Dataset: command.DatasetID(p + "d1"), Amount: 42.5}, "POST", "/v1/bids", `{"buyer":"` + p + `b","dataset":"` + p + `d1","amount":42.5}`},
			{command.Tick{}, "POST", "/v1/tick", `{}`},
			{command.WithdrawDataset{Seller: command.SellerID(p + "s"), Dataset: command.DatasetID(p + "d2")}, "DELETE", "/v1/datasets/" + p + "d2?seller=" + p + "s", ""},
		}
	}
	check := func(transport string, s step) {
		t.Helper()
		want, err := command.EncodeBinary(s.cmd)
		if err != nil {
			t.Fatal(err)
		}
		if got := recorded(); len(got) == 0 || !bytes.Equal(got[len(got)-1], want) {
			t.Fatalf("%s %s: the record is not the request's encoding %x (records: %x)", transport, s.cmd.Op(), want, got)
		}
	}

	for i, s := range steps("wire-") {
		id := uint64(i + 1)
		c.burst(commandFrame(t, id, s.cmd, ""))
		c.expect(t, id, statusOK)
		check("wire", s)
	}
	for _, s := range steps("http-") {
		req, err := http.NewRequest(s.method, hs.URL+s.path, strings.NewReader(s.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("http %s: status %d", s.cmd.Op(), resp.StatusCode)
		}
		check("http", s)
	}

	// A bid the market takes, its buyer's one-byte length padded to two
	// bytes: refused, and then taken as sent canonically.
	bid := command.SubmitBid{Buyer: "wire-b", Dataset: "wire-c", Amount: 42.5}
	enc, err := command.EncodeBinary(bid)
	if err != nil {
		t.Fatal(err)
	}
	padded := append([]byte{99, kindCommand, enc[0], enc[1] | 0x80, 0}, enc[2:]...)
	before := jm.LastSeq()
	c.burst(frameBytes(padded))
	if code := readError(c.expect(t, 99, statusErr)).Code; code != apierr.CodeBadRequest {
		t.Fatalf("a padded bid is answered %q, want %s", code, apierr.CodeBadRequest)
	}
	if seq := jm.LastSeq(); seq != before {
		t.Fatalf("a padded bid moved the journal from seq %d to %d", before, seq)
	}
	c.burst(commandFrame(t, 100, bid, ""))
	c.expect(t, 100, statusOK)
	check("wire", step{cmd: bid})
}
