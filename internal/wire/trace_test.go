package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestHandshakeSpeaksOnlyV3 drives every possible hello byte at the
// server: 0–2 are refused with SHW\x00 and an ErrHandshake naming both
// versions; 3–255 are answered v3 (a newer client falls back to it) and
// the connection then serves a ping.
func TestHandshakeSpeaksOnlyV3(t *testing.T) {
	s := NewServer(testMarket(t))
	for v := 0; v < 256; v++ {
		hello := byte(v)
		clientEnd, serverEnd := net.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- s.ServeConn(serverEnd) }()

		if _, err := clientEnd.Write([]byte{'S', 'H', 'W', hello}); err != nil {
			t.Fatal(err)
		}
		var answer [4]byte
		if _, err := io.ReadFull(clientEnd, answer[:]); err != nil {
			t.Fatalf("hello v%d: reading answer: %v", hello, err)
		}
		if hello < Version {
			if answer != [4]byte{'S', 'H', 'W', 0} {
				t.Fatalf("hello v%d: server answered %x, want SHW\\x00", hello, answer)
			}
			err := <-errc
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("hello v%d: server returned %v, want ErrHandshake", hello, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("v%d,", hello)) || !strings.Contains(msg, "v3") {
				t.Fatalf("hello v%d: refusal %q does not name both versions", hello, msg)
			}
			clientEnd.Close()
			continue
		}
		if answer != [4]byte{'S', 'H', 'W', Version} {
			t.Fatalf("hello v%d: server answered %x, want SHW v%d", hello, answer, Version)
		}
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
			t.Fatalf("hello v%d: ping got no response: %v", hello, err)
		}
		resp := make([]byte, binary.LittleEndian.Uint32(respHdr[:]))
		if _, err := io.ReadFull(clientEnd, resp); err != nil {
			t.Fatal(err)
		}
		if h, r := response(resp); h != (respHead{id: 1, status: statusOK}) || r.Done() != nil {
			t.Fatalf("hello v%d: ping response %x malformed", hello, resp)
		}
		clientEnd.Close()
		if err := <-errc; err != nil {
			t.Fatalf("hello v%d: server ended with %v", hello, err)
		}
	}
}

// TestClientRefusesOtherVersions fakes servers answering v1, v2 and v4:
// the client speaks only v3, so NewConn fails with an ErrHandshake that
// names the version it was offered, instead of running a grammar the
// peer would misparse.
func TestClientRefusesOtherVersions(t *testing.T) {
	for _, answer := range []byte{1, 2, 4} {
		clientEnd, serverEnd := net.Pipe()
		go func() {
			var hello [4]byte
			if _, err := io.ReadFull(serverEnd, hello[:]); err != nil {
				return
			}
			serverEnd.Write([]byte{'S', 'H', 'W', answer})
		}()
		c, err := NewConn(clientEnd)
		if err == nil {
			c.Close()
			t.Fatalf("server answering v%d: NewConn succeeded", answer)
		}
		if !errors.Is(err, ErrHandshake) {
			t.Fatalf("server answering v%d: NewConn returned %v, want ErrHandshake", answer, err)
		}
		if want := fmt.Sprintf("answered v%d,", answer); !strings.Contains(err.Error(), want) {
			t.Fatalf("server answering v%d: refusal %q does not name it", answer, err)
		}
		clientEnd.Close()
		serverEnd.Close()
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
	const id = "req-00000001"
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
