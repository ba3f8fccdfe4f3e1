package wire

import (
	"context"
	"net"
	"testing"

	"github.com/datamarket/shield/internal/obs"
)

// TestWireBidRoundTripAllocs is the transport's allocation budget: one
// depth-1 round trip of a losing bid over loopback TCP against an
// instrumented server on a plain market, client and server counted
// together. What is left per request is the request's own data — the
// minted request ID, the decoded command and its two id strings on the
// server, the event slice the market returns — and nothing for the
// mechanism: no frame header, payload or reader-to-executor handoff, no
// context links, no encode-then-copy on the client. (With a reader
// goroutine, a channel and two context links per request this read 12–13.)
func TestWireBidRoundTripAllocs(t *testing.T) {
	m := benchMarket(t)
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(16, 0, 1)}
	m.Instrument(tel)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = NewServer(m).WithTelemetry(tel).Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Each run is two requests: a tick (the losing bidder waits out one
	// period) and the bid. Amount 5 sits under every candidate price.
	ctx := context.Background()
	perRun := testing.AllocsPerRun(200, func() {
		if _, err := c.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitBid(ctx, "b", "d", 5); err != nil {
			t.Fatal(err)
		}
	})
	if perRequest := perRun / 2; perRequest > 4 {
		t.Fatalf("a wire round trip allocates %.1f times per request (client + server), want <= 4", perRequest)
	}
	t.Logf("%.1f allocations per request", perRun/2)
}
