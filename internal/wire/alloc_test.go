package wire

import (
	"context"
	"io"
	"net"
	"testing"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// roundTripAllocs serves b on loopback TCP from an instrumented server
// with tracing off and returns the allocations per request, client and
// server counted together, of a depth-1 round trip: a tick (the losing
// bidder waits out one period), then buyer's bid of 5 on dataset, under
// every candidate price.
func roundTripAllocs(t *testing.T, b interface {
	Backend
	Instrument(*obs.Telemetry)
}, buyer market.BuyerID, dataset market.DatasetID) float64 {
	t.Helper()
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(16, 0, 1)}
	b.Instrument(tel)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = NewServer(b).WithTelemetry(tel).Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	perRun := testing.AllocsPerRun(200, func() {
		if _, err := c.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitBid(ctx, buyer, dataset, 5); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per request", perRun/2)
	return perRun / 2
}

// TestWireBidRoundTripAllocs is the transport's allocation budget on a
// plain market: nothing. A command is boxed on the client's stack to be
// encoded, checked on the server (a bid in place, a tick decoded to a
// zero-size value) and submitted as its bytes; the stage collects its
// event in the market's scratch and hands it back as a value; both
// request IDs stay numbers. Nothing is spent on the mechanism: no frame
// header, payload or reader-to-executor handoff, no context links, no
// encode-then-copy on the client. (With a reader goroutine, a channel and
// two context links per request this read 12–13; with the bid boxed on
// the heap at both ends and its event in a slice, 3; with each request's
// minted ID spelled, 1.5; with the tick's event in a slice of its own,
// 0.5.)
func TestWireBidRoundTripAllocs(t *testing.T) {
	if perRequest := roundTripAllocs(t, benchMarket(t), "b", "d"); perRequest != 0 {
		t.Fatalf("a wire round trip allocates %.1f times per request (client + server), want 0", perRequest)
	}
}

// TestWireBidNamesAreNotCopied is the same round trip with names as long
// as the benchmark's, on a journaled market. Go interns one-byte strings,
// so the test above cannot see a name copied out of the frame; here each
// would cost one. The commit stage resolves the bid's names against the
// market's own and records the bytes it received, and its minted request
// ID is spelled only into the record, so the round trip still costs
// nothing. (With the names decoded into strings and the ID spelled at
// mint, 2.5; with the tick's event in a slice of its own, 0.5.)
func TestWireBidNamesAreNotCopied(t *testing.T) {
	jm, err := journal.NewMarket(benchConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	for _, err := range []error{
		jm.RegisterSeller("seller-1"), jm.UploadDataset("seller-1", "ds-001"), jm.RegisterBuyer("buyer-0001"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if perRequest := roundTripAllocs(t, jm, "buyer-0001", "ds-001"); perRequest != 0 {
		t.Fatalf("a journaled wire round trip allocates %.1f times per request (client + server), want 0", perRequest)
	}
}
