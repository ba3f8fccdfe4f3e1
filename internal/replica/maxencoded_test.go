package replica

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/wire"
)

// TestLargestCommandReachesFollowers pins command.MaxEncoded to the wire
// frame a record is replicated in. Past seq 127 a record's seq takes two
// uvarint bytes, and a command the leader accepts must still fit its
// replication frame (type byte, seq, body) or serveReplication fails on
// every redial and the follower stalls for good. So a command of exactly
// MaxEncoded bytes sent over wire at such a seq reaches a follower, and
// one byte more is refused — over wire and over HTTP, as bad_request,
// journaling nothing — before the market moves. And the bound holds at
// any seq: even a command one byte longer, under the longest seq, would
// fit its frame.
func TestLargestCommandReachesFollowers(t *testing.T) {
	r := newLeaderRig(t, 0)
	for r.jm.LastSeq() < 128 {
		if _, err := r.jm.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := Start(Config{Dial: r.dial, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitConverged(t, f, r.feed, 5*time.Second)

	conn, err := r.dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.NewConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// A register_buyer's encoding is the opcode, a three-byte uvarint
	// length at this size, and the name.
	name := func(encoded int) market.BuyerID { return market.BuyerID(strings.Repeat("x", encoded-4)) }
	largest := name(command.MaxEncoded)
	if _, err := c.RegisterBuyer(ctx, largest); err != nil {
		t.Fatalf("a %d-byte command (command.MaxEncoded) over wire: %v", command.MaxEncoded, err)
	}
	seq := r.jm.LastSeq()
	deadline := time.Now().Add(3 * time.Second)
	for f.Applied() < seq {
		if time.Now().After(deadline) {
			_, leader, _, connected := f.Staleness()
			t.Fatalf("a %d-byte command (command.MaxEncoded) at seq %d never reached the follower: applied %d, leader %d, connected %v", command.MaxEncoded, seq, f.Applied(), leader, connected)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := f.Market().BuyerSpend(largest); err != nil {
		t.Fatalf("the follower applied seq %d without its buyer: %v", seq, err)
	}

	over := name(command.MaxEncoded + 1)
	var api *apierr.APIError
	if _, err := c.RegisterBuyer(ctx, over); !errors.As(err, &api) || api.Code != apierr.CodeBadRequest {
		t.Errorf("a %d-byte command over wire: %v, want %s", command.MaxEncoded+1, err, apierr.CodeBadRequest)
	}
	hs := httptest.NewServer(httpapi.NewJournaled(r.jm).Routes())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/buyers", "application/json", strings.NewReader(`{"id":"`+string(over)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Error apierr.APIError }
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != apierr.CodeBadRequest {
		t.Errorf("a %d-byte command over HTTP: status %d, %+v (%v), want %s", command.MaxEncoded+1, resp.StatusCode, env.Error, err, apierr.CodeBadRequest)
	}
	if got := r.jm.LastSeq(); got != seq {
		t.Errorf("refused commands moved the journal from seq %d to %d", seq, got)
	}
	if command.MaxEncoded+1+binary.MaxVarintLen64 > wire.MaxFrame {
		t.Errorf("command.MaxEncoded = %d: a command one byte longer, under the longest seq, makes a replication frame over wire.MaxFrame = %d", command.MaxEncoded, wire.MaxFrame)
	}
}
