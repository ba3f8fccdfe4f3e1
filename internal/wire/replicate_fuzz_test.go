package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/datamarket/shield/internal/torture"
	"github.com/datamarket/shield/internal/wire"
)

// FuzzReplicateDecode pins the replication stream decoder's safety
// contract: DecodeReplicationFrame never panics, accepts only records
// carrying exactly lastSeq+1 and heartbeats at or ahead of lastSeq, and
// every rejection wraps exactly one of the closed error set —
// ErrReplicaPayload for a malformed frame head, ErrReplicaSeq for
// duplicates, reorders, gaps, and regressing heartbeats. A frame it
// accepts is the one its encoder writes for what it decoded, so a
// padded seq is refused, not read as a second spelling, and a record's
// body comes out as the bytes it went in as (the follower decodes it as
// it applies it: TestFollowerRefusesAnUndecodableRecord). Seeds cover realistic
// record frames built from the torture generator's command and retired
// settlement corpora plus the interesting sequencing violations, so
// mutation starts from structurally valid frames.
func FuzzReplicateDecode(f *testing.F) {
	corpus, err := torture.CommandCorpus(1, 200)
	if err != nil {
		f.Fatal(err)
	}
	settles, err := torture.SettleCorpus(1, 200)
	if err != nil {
		f.Fatal(err)
	}
	seq := int64(0)
	for i, enc := range append(corpus, settles...) {
		// Both corpora alternate JSON and binary encodings; record
		// frames carry binary only, but both make useful seed bodies.
		// A retired settlement's opcode 9 frames like any other body:
		// the frame decoder does not read it, the follower refuses it.
		if i%2 == 1 {
			seq++
			f.Add(wire.AppendRecordFrame(nil, seq, enc), seq-1) // in order: accepted
			f.Add(wire.AppendRecordFrame(nil, seq, enc), seq)   // duplicate: ErrReplicaSeq
			f.Add(wire.AppendRecordFrame(nil, seq, enc), seq-2) // gap: ErrReplicaSeq
		} else {
			f.Add(wire.AppendRecordFrame(nil, 1, enc), int64(0)) // undecodable body: the follower's to refuse
		}
	}
	f.Add(wire.AppendHeartbeatFrame(nil, 7), int64(7))               // current
	f.Add(wire.AppendHeartbeatFrame(nil, 9), int64(7))               // ahead
	f.Add(wire.AppendHeartbeatFrame(nil, 3), int64(7))               // regressing: ErrReplicaSeq
	f.Add([]byte(nil), int64(0))                                     // empty
	f.Add([]byte{0x7F}, int64(0))                                    // unknown frame type
	f.Add([]byte{1, 0x80}, int64(0))                                 // unterminated seq uvarint
	f.Add([]byte{2, 0x80}, int64(5))                                 // unterminated heartbeat
	f.Add(binary.AppendUvarint([]byte{1}, math.MaxUint64), int64(0)) // seq overflows int64
	f.Add([]byte{1, 0x81, 0x00, 0x08}, int64(0))                     // a tick, its seq padded
	f.Add([]byte{2, 0x87, 0x00}, int64(7))                           // a heartbeat, its seq padded

	f.Fuzz(func(t *testing.T, payload []byte, lastSeq int64) {
		fr, err := wire.DecodeReplicationFrame(payload, lastSeq)
		if err != nil {
			pay := errors.Is(err, wire.ErrReplicaPayload)
			seqv := errors.Is(err, wire.ErrReplicaSeq)
			if pay == seqv {
				t.Fatalf("error outside the closed set (payload=%t seq=%t): %v for %x", pay, seqv, err, payload)
			}
			return
		}
		again := wire.AppendRecordFrame(nil, fr.Seq, fr.Payload)
		if fr.Heartbeat {
			again = wire.AppendHeartbeatFrame(nil, fr.Seq)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x, which re-encodes as %x", payload, again)
		}
		if fr.Heartbeat {
			if fr.Payload != nil {
				t.Fatalf("heartbeat carries a command: %+v for %x", fr, payload)
			}
			if fr.Seq < lastSeq {
				t.Fatalf("accepted heartbeat regressing the leader to %d behind %d for %x", fr.Seq, lastSeq, payload)
			}
			return
		}
		if fr.Seq != lastSeq+1 {
			t.Fatalf("accepted record seq %d after %d (only +1 is legal) for %x", fr.Seq, lastSeq, payload)
		}
	})
}
