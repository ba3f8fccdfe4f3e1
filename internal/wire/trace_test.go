package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// TestHandshakeNegotiatesMinVersion drives raw hellos at the server and
// checks the answer is the smaller of the two sides' versions: a v1
// client still connects to this v2 server (and the connection runs v1
// framing), a from-the-future client is answered with our version, and
// a version-0 hello is refused.
func TestHandshakeNegotiatesMinVersion(t *testing.T) {
	cases := []struct {
		hello      byte
		want       byte
		refused    bool
		frameWorks bool
	}{
		{hello: 1, want: 1, frameWorks: true},
		{hello: Version, want: Version, frameWorks: true},
		{hello: Version + 5, want: Version, frameWorks: true},
		{hello: 0, want: 0, refused: true},
	}
	for _, tc := range cases {
		s := NewServer(testMarket(t))
		clientEnd, serverEnd := net.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- s.ServeConn(serverEnd) }()

		hello := [4]byte{'S', 'H', 'W', tc.hello}
		if _, err := clientEnd.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		var answer [4]byte
		if _, err := io.ReadFull(clientEnd, answer[:]); err != nil {
			t.Fatalf("hello v%d: reading answer: %v", tc.hello, err)
		}
		if answer[3] != tc.want {
			t.Fatalf("hello v%d: server answered v%d, want v%d", tc.hello, answer[3], tc.want)
		}
		if tc.refused {
			if err := <-errc; !errors.Is(err, ErrHandshake) {
				t.Fatalf("hello v%d: server returned %v, want ErrHandshake", tc.hello, err)
			}
			clientEnd.Close()
			continue
		}
		// The negotiated connection must serve a plain v1 ping frame
		// regardless of which version was agreed (v1 framing is a subset
		// of v2).
		var req []byte
		req = binary.AppendUvarint(req, 1)
		req = append(req, kindQuery, qPing)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(req)))
		if _, err := clientEnd.Write(append(hdr[:], req...)); err != nil {
			t.Fatal(err)
		}
		var respHdr [4]byte
		if _, err := io.ReadFull(clientEnd, respHdr[:]); err != nil {
			t.Fatalf("hello v%d: ping got no response: %v", tc.hello, err)
		}
		resp := make([]byte, binary.LittleEndian.Uint32(respHdr[:]))
		if _, err := io.ReadFull(clientEnd, resp); err != nil {
			t.Fatal(err)
		}
		r := &payloadReader{data: resp}
		if id := r.uvarint(); id != 1 || r.byte() != statusOK || !r.done() {
			t.Fatalf("hello v%d: ping response %x malformed", tc.hello, resp)
		}
		clientEnd.Close()
		<-errc
	}
}

// TestClientDowngradesAgainstV1Server fakes an old server that answers
// version 1 and asserts the client both records the downgrade and stops
// emitting the trace field — a v1 peer would misparse it as body bytes.
func TestClientDowngradesAgainstV1Server(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()

	kindSeen := make(chan byte, 1)
	go func() {
		var hello [4]byte
		if _, err := io.ReadFull(serverEnd, hello[:]); err != nil {
			return
		}
		answer := [4]byte{'S', 'H', 'W', 1}
		if _, err := serverEnd.Write(answer[:]); err != nil {
			return
		}
		var hdr [4]byte
		if _, err := io.ReadFull(serverEnd, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(serverEnd, payload); err != nil {
			return
		}
		r := &payloadReader{data: payload}
		id := r.uvarint()
		kindSeen <- r.byte()
		// Answer the ping so the round trip completes.
		var resp []byte
		resp = binary.AppendUvarint(resp, id)
		resp = append(resp, statusOK)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(resp)))
		serverEnd.Write(append(hdr[:], resp...))
	}()

	c, err := NewConn(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.ProtocolVersion(); v != 1 {
		t.Fatalf("negotiated version %d, want 1", v)
	}

	// A context that would earn the trace field on a v2 connection.
	tel := obs.NewTelemetry()
	id := tel.Tracer.NewRequestID()
	tr := tel.Tracer.Begin(id, "client")
	ctx := obs.WithTrace(obs.WithRequestID(context.Background(), id), tr)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping over downgraded connection: %v", err)
	}
	if kind := <-kindSeen; kind&kindTraceFlag != 0 {
		t.Fatalf("client sent the v2 trace flag (kind %#x) on a v1 connection", kind)
	}
}

// TestTracePropagatesAcrossWire sends a sampled request through an
// instrumented server and checks the server's ring holds a trace under
// the client's request ID, decomposed into the wire stages.
func TestTracePropagatesAcrossWire(t *testing.T) {
	m := testMarket(t)
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	serverTel := obs.NewTelemetry()
	c := pipeClient(t, NewServer(m).WithTelemetry(serverTel))

	clientTel := obs.NewTelemetry()
	id := clientTel.Tracer.NewRequestID()
	tr := clientTel.Tracer.Begin(id, "client.bid")
	ctx := obs.WithTrace(obs.WithRequestID(context.Background(), id), tr)
	if _, err := c.SubmitBid(ctx, "b", "d", 5); err != nil {
		t.Fatal(err)
	}
	clientTel.Tracer.Finish(tr)

	// ServeConn finishes the trace after flushing the response, which
	// races with the client observing the response; wait briefly.
	var snap obs.TraceSnapshot
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		snap, ok = serverTel.Tracer.Find(id)
		if !ok {
			time.Sleep(time.Millisecond)
		}
	}
	if !ok {
		t.Fatalf("server ring has no trace for propagated id %s", id)
	}
	if !strings.HasPrefix(snap.Name, "wire.") {
		t.Fatalf("server trace named %q, want wire.<op>", snap.Name)
	}
	stages := map[string]bool{}
	for _, s := range snap.Spans {
		stages[s.Name] = true
	}
	for _, want := range []string{"wire.read", "decode"} {
		if !stages[want] {
			t.Fatalf("server trace spans %v missing %q", snap.Spans, want)
		}
	}

	// An unsampled context (request ID, no trace) must not occupy a
	// server ring slot: the originator's sampling decision is
	// authoritative for propagated IDs.
	plainID := "req-unsampled-1"
	ctx = obs.WithRequestID(context.Background(), plainID)
	_, _ = c.SubmitBid(ctx, "b", "d", 5) // a wait-blocked bid still crosses the server
	time.Sleep(5 * time.Millisecond)
	if _, found := serverTel.Tracer.Find(plainID); found {
		t.Fatal("server traced a request whose originator did not sample it")
	}
}

// TestWireJournalCarriesPropagatedTrace closes the wire journaling gap
// end to end: a command driven over the wire against a journaled,
// instrumented backend lands in the journal stamped with the client's
// request ID — and an uninstrumented server keeps journal records
// trace-free, which is what keeps torture's wire twin byte-identical.
func TestWireJournalCarriesPropagatedTrace(t *testing.T) {
	run := func(t *testing.T, instrument bool, wantTrace string) {
		dir := t.TempDir()
		cfg := market.Config{
			Engine: core.Config{
				Candidates:    auction.LinearGrid(10, 100, 10),
				EpochSize:     4,
				BidsPerPeriod: 8,
				MinBid:        1,
			},
			Seed: 7,
		}
		jm, _, err := journal.OpenStore(cfg, dir, journal.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer jm.Close()
		s := NewServer(jm)
		if instrument {
			s.WithTelemetry(obs.NewTelemetry())
		}
		c := pipeClient(t, s)

		ctx := context.Background()
		if wantTrace != "" {
			ctx = obs.WithRequestID(ctx, wantTrace)
		}
		if err := c.RegisterSeller(ctx, "s"); err != nil {
			t.Fatal(err)
		}
		jm.Close()

		// The journal opens with a genesis record; the command's event
		// follows it.
		var got *journal.Event
		if err := journal.ScanDir(dir, func(_ string, e journal.Event) error {
			if e.Op == "register_seller" {
				got = &e
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatal("no register_seller event in the store")
		}
		if got.Trace != wantTrace {
			t.Fatalf("journaled trace %q, want %q", got.Trace, wantTrace)
		}
	}
	t.Run("instrumented", func(t *testing.T) { run(t, true, "req-client-77") })
	t.Run("uninstrumented", func(t *testing.T) { run(t, false, "") })
}
