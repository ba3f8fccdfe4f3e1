package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/command"
)

var updateReplGolden = flag.Bool("update-replicate", false, "regenerate the replication wire fixtures")

// The byte-pinned replication session fixtures: everything the client
// sends (hello + subscribe request) and everything the server sends
// (hello + response + the first record frames) for a fixed workload.
// They freeze the v3 replication grammar on the wire — if either file
// needs regenerating, the protocol changed and every deployed follower
// needs a story.
const (
	goldenReplClientPath = "testdata/replicate_v3.client.bin"
	goldenReplServerPath = "testdata/replicate_v3.server.bin"
)

// goldenReplCommands is the fixed command stream behind the fixture:
// one of each early-lifecycle kind, encoded with command.EncodeBinary
// exactly as the leader journals them.
func goldenReplCommands() []command.Command {
	return []command.Command{
		command.RegisterSeller{Seller: "acme"},
		command.RegisterBuyer{Buyer: "alice"},
		command.UploadDataset{Seller: "acme", Dataset: "weather"},
		command.SubmitBid{Buyer: "alice", Dataset: "weather", Amount: 55},
	}
}

// scriptedSource is a ReplicationSource serving a fixed pre-encoded
// record stream — the golden session must not depend on journal or
// feed internals, only on the wire grammar.
type scriptedSource struct{ recs []RepRecord }

func (s scriptedSource) Subscribe(afterSeq int64) (Subscription, error) {
	ch := make(chan RepRecord, len(s.recs))
	for _, r := range s.recs {
		if r.Seq > afterSeq {
			ch <- r
		}
	}
	return Subscription{StartSeq: afterSeq, Records: ch, Cancel: func() {}}, nil
}

func (s scriptedSource) LeaderSeq() int64 { return s.recs[len(s.recs)-1].Seq }

// recordConn tees both directions of the server's end of the pipe:
// Reads capture client-to-server bytes, Writes server-to-client.
type recordConn struct {
	net.Conn
	c2s, s2c bytes.Buffer
}

func (c *recordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c2s.Write(p[:n])
	return n, err
}

func (c *recordConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.s2c.Write(p[:n])
	return n, err
}

// captureReplicationSession runs the golden session — handshake,
// subscribe from seq 0, stream the scripted records — against the real
// server and client and returns the raw bytes each side sent. The
// heartbeat interval is pinned high so no timer-driven frame can land
// in the capture.
func captureReplicationSession(t *testing.T) (c2s, s2c []byte) {
	t.Helper()
	var recs []RepRecord
	for i, cmd := range goldenReplCommands() {
		enc, err := command.EncodeBinary(cmd)
		if err != nil {
			t.Fatal(err)
		}
		seq := int64(i + 1)
		recs = append(recs, RepRecord{Seq: seq, Payload: AppendRecordFrame(nil, seq, enc)})
	}

	srvConn, cliConn := net.Pipe()
	rec := &recordConn{Conn: srvConn}
	srv := NewServer(testMarket(t)).
		WithReplication(scriptedSource{recs: recs}).
		WithHeartbeatInterval(time.Hour)
	done := make(chan struct{})
	go func() { _ = srv.ServeConn(rec); close(done) }()

	conn, err := NewConn(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := conn.OpenReplication(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot != nil || st.StartSeq != 0 {
		t.Fatalf("golden session changed shape: snapshot=%v startSeq=%d", st.Snapshot != nil, st.StartSeq)
	}
	if n := conn.br.Size(); n != streamBufferSize {
		t.Fatalf("the stream reads through a %d-byte buffer, want %d", n, streamBufferSize)
	}
	for i := range recs {
		fr, err := st.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Heartbeat || fr.Seq != int64(i+1) {
			t.Fatalf("golden record %d decoded as %+v", i+1, fr)
		}
	}
	conn.Close()
	<-done
	return rec.c2s.Bytes(), rec.s2c.Bytes()
}

// splitFrames parses a captured byte stream into its 4-byte handshake
// and the payloads of each length-prefixed frame.
func splitFrames(t *testing.T, raw []byte) (hello []byte, payloads [][]byte) {
	t.Helper()
	if len(raw) < 4 {
		t.Fatalf("stream too short for a handshake: %x", raw)
	}
	hello, raw = raw[:4], raw[4:]
	for len(raw) > 0 {
		if len(raw) < 4 {
			t.Fatalf("trailing bytes do not frame: %x", raw)
		}
		n := binary.LittleEndian.Uint32(raw[:4])
		raw = raw[4:]
		if uint32(len(raw)) < n {
			t.Fatalf("truncated frame: want %d bytes, have %d", n, len(raw))
		}
		payloads = append(payloads, raw[:n])
		raw = raw[n:]
	}
	return hello, payloads
}

// TestGoldenReplicationSession pins the replication handshake and first
// frames byte for byte. The checked-in fixtures are what a v3 leader
// and follower exchanged for the golden workload; the current code must
// still emit exactly those bytes (regenerate deliberately with
// -update-replicate), and the checked-in server stream must still
// decode record by record — which is the back-compat guarantee for
// followers reading a stream written by an older leader.
func TestGoldenReplicationSession(t *testing.T) {
	c2s, s2c := captureReplicationSession(t)
	if *updateReplGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReplClientPath, c2s, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReplServerPath, s2c, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("replication fixtures regenerated")
	}

	wantC2S, err := os.ReadFile(goldenReplClientPath)
	if err != nil {
		t.Fatal(err)
	}
	wantS2C, err := os.ReadFile(goldenReplServerPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c2s, wantC2S) {
		t.Errorf("client bytes drifted from the pinned session:\n got %x\nwant %x", c2s, wantC2S)
	}
	if !bytes.Equal(s2c, wantS2C) {
		t.Errorf("server bytes drifted from the pinned session:\n got %x\nwant %x", s2c, wantS2C)
	}

	// The client fixture: v3 hello, then exactly one subscribe request
	// (id 1, kindReplicate, afterSeq 0).
	hello, reqs := splitFrames(t, wantC2S)
	if !bytes.Equal(hello, []byte{'S', 'H', 'W', 3}) {
		t.Errorf("client hello %x, want SHW v3", hello)
	}
	if len(reqs) != 1 || !bytes.Equal(reqs[0], []byte{1, kindReplicate, 0}) {
		t.Errorf("subscribe request frames %x, want [01 03 00]", reqs)
	}

	// The server fixture: v3 hello, the tail-mode subscribe response,
	// then the golden records — each of which must still decode through
	// the current decoder to the bytes of the command that produced it.
	hello, frames := splitFrames(t, wantS2C)
	if !bytes.Equal(hello, []byte{'S', 'H', 'W', 3}) {
		t.Errorf("server hello %x, want SHW v3", hello)
	}
	cmds := goldenReplCommands()
	if len(frames) != 1+len(cmds) {
		t.Fatalf("server stream carries %d frames, want %d", len(frames), 1+len(cmds))
	}
	if !bytes.Equal(frames[0], []byte{1, statusOK, 0, 0}) {
		t.Errorf("subscribe response %x, want [01 00 00 00] (id 1, ok, tail mode, startSeq 0)", frames[0])
	}
	lastSeq := int64(0)
	for i, payload := range frames[1:] {
		fr, err := DecodeReplicationFrame(payload, lastSeq)
		if err != nil {
			t.Fatalf("pinned record %d no longer decodes: %v", i+1, err)
		}
		lastSeq = fr.Seq
		want, err := command.EncodeBinary(cmds[i])
		if err != nil {
			t.Fatal(err)
		}
		if fr.Seq != int64(i+1) || !bytes.Equal(fr.Payload, want) {
			t.Errorf("pinned record %d decoded to seq %d cmd %x, want seq %d cmd %x",
				i+1, fr.Seq, fr.Payload, i+1, want)
		}
	}
}

// TestReplicateRejectedOnV2: a v2 peer never reaches a replication
// stream. A replication-enabled server refuses its hello with SHW\x00
// and ErrHandshake, before any request frame is read.
func TestReplicateRejectedOnV2(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	srv := NewServer(testMarket(t)).
		WithReplication(scriptedSource{recs: []RepRecord{{Seq: 1}}}).
		WithHeartbeatInterval(time.Hour)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(srvConn) }()
	defer cliConn.Close()

	if _, err := cliConn.Write([]byte{'S', 'H', 'W', 2}); err != nil {
		t.Fatal(err)
	}
	var answer [4]byte
	if _, err := io.ReadFull(cliConn, answer[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answer[:], []byte{'S', 'H', 'W', 0}) {
		t.Fatalf("v2 hello answered %x, want SHW\\x00", answer)
	}
	if err := <-errc; !errors.Is(err, ErrHandshake) {
		t.Fatalf("server returned %v, want ErrHandshake", err)
	}
}

// snapshotSource is a ReplicationSource that answers every subscriber
// with the same snapshot.
type snapshotSource struct {
	snap     []byte
	canceled chan struct{}
}

func (s snapshotSource) Subscribe(int64) (Subscription, error) {
	return Subscription{Snapshot: s.snap, StartSeq: 9, Records: make(chan RepRecord), Cancel: func() { close(s.canceled) }}, nil
}

func (s snapshotSource) LeaderSeq() int64 { return 9 }

// TestOversizedSnapshotIsRefused: a catch-up snapshot that does not fit
// the subscribe frame is a refusal the follower can read — an internal
// error naming the size and the limit — not a connection that just
// closes, and the subscription is released.
func TestOversizedSnapshotIsRefused(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	src := snapshotSource{snap: bytes.Repeat([]byte{0xAB}, 4096), canceled: make(chan struct{})}
	srv := NewServer(testMarket(t)).WithReplication(src)
	srv.snapshotLimit = 1024
	go func() { _ = srv.ServeConn(srvConn) }()

	conn, err := NewConn(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = conn.OpenReplication(ctx, 0)
	var ae *apierr.APIError
	if !errors.As(err, &ae) || ae.Code != apierr.CodeInternal {
		t.Fatalf("oversized snapshot: %v, want an internal-error envelope", err)
	}
	for _, want := range []string{"4100-byte frame", "1024-byte limit"} {
		if !strings.Contains(ae.Message, want) {
			t.Fatalf("refusal %q does not name %q", ae.Message, want)
		}
	}
	select {
	case <-src.canceled:
	case <-ctx.Done():
		t.Fatal("the refused subscription was never canceled")
	}

	// At the limit it still goes through.
	srvConn, cliConn = net.Pipe()
	srv.snapshotLimit = 4100
	srv.repl = snapshotSource{snap: src.snap, canceled: make(chan struct{})}
	go func() { _ = srv.ServeConn(srvConn) }()
	if conn, err = NewConn(cliConn); err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if st, err := conn.OpenReplication(ctx, 0); err != nil || !bytes.Equal(st.Snapshot, src.snap) || st.StartSeq != 9 {
		t.Fatalf("snapshot at the frame limit: %v", err)
	}
}
