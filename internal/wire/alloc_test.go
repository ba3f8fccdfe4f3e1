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
// together. What is left is the request's own data: the minted request
// ID on each, and the tick's event slice — 1.5 per request. A bid costs
// its ID alone: it is boxed on the client's stack to be encoded, decoded
// into a value on the server and submitted as one, and its event comes
// back as one; its one-byte names are free, longer ones cost a string
// each. Nothing is spent on the mechanism: no frame header, payload or
// reader-to-executor handoff, no context links, no encode-then-copy on
// the client. (With a reader goroutine, a channel and two context links
// per request this read 12–13; with the bid boxed on the heap at both
// ends and its event in a slice, 3.)
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
	if perRequest := perRun / 2; perRequest > 2 {
		t.Fatalf("a wire round trip allocates %.1f times per request (client + server), want <= 2", perRequest)
	}
	t.Logf("%.1f allocations per request", perRun/2)
}
