package journal

import (
	"os"
	"strings"
	"testing"
)

func FuzzReadNeverPanics(f *testing.F) {
	f.Add("")
	f.Add("{bogus")
	f.Add(`{"seq":1,"op":"genesis","config":{"Seed":1}}`)
	f.Add(`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"register_buyer","buyer":"b"}`)
	f.Add(`{"seq":2,"op":"tick"}`)
	f.Add(`{"seq":1,"op":"genesis"}{"seq":2,"op":"tick"}`)
	// Batch bids, including an empty and a malformed batch.
	f.Add(`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"register_buyer","buyer":"b"}
{"seq":3,"op":"register_seller","seller":"s"}
{"seq":4,"op":"upload","seller":"s","dataset":"d"}
{"seq":5,"op":"bid_batch","bids":[{"buyer":"b","dataset":"d","amount":2}]}`)
	f.Add(`{"seq":1,"op":"genesis","config":{"Seed":1}}
{"seq":2,"op":"bid_batch","bids":[]}`)
	f.Add(`{"seq":1,"op":"bid_batch","bids":[{"buyer":"b"`)
	// Snapshot-headed (compacted) logs, valid and corrupt.
	f.Add(`{"seq":1,"op":"snapshot","snapshot":{"config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1},"clock":0,"graph":{},"engines":{},"owners":{},"buyers":{},"sellers":{},"revenue":0}}`)
	f.Add(`{"seq":1,"op":"snapshot","snapshot":{"clock":-5}}`)
	// Torn records: a trailing line without a newline is the one
	// anomaly a crash can produce, and must be tolerated.
	f.Add(`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"regi`)
	f.Add(`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"tick"}
{"seq":3,"op"`)
	f.Add(`{"seq":1,"op":"gene`)

	// Version-3 frame logs: whole, torn inside the header and the body,
	// a version-2 log continued with frames, a flipped checksum, a
	// flipped payload bit, and lengths from implausible to giant.
	frames := string(bidLog(f, 3))
	bounds := recordBoundaries(f, []byte(frames), 1)
	f.Add(frames)
	f.Add(frames[:bounds[1]+4])
	f.Add(frames[:bounds[2]-3])
	v2, err := os.ReadFile(v2LogPath)
	if err != nil {
		f.Fatal(err)
	}
	tail := endedFrame(beginFrame(nil, 21, nil, kindCommand), 8) // a tick, the v2 fixture's next seq
	f.Add(string(v2) + string(tail))
	f.Add(string(v2) + string(tail[:len(tail)-1]))
	flip := func(s string, off int) string {
		b := []byte(s)
		b[off] ^= 0x04
		return string(b)
	}
	f.Add(flip(frames, bounds[0]+6))                                          // stored checksum
	f.Add(flip(frames, bounds[1]-2))                                          // payload
	f.Add(flip(frames, bounds[0]+2))                                          // length, +1 KiB
	f.Add(frames[:bounds[0]] + "\xf3\xff\xff\xff\xff" + frames[bounds[0]+5:]) // 4 GiB
	f.Add(frames[:bounds[0]] + "\xf3\x00\x00\x00\x00\x00\x00\x00\x00")        // empty body

	f.Fuzz(func(t *testing.T, log string) {
		events, err := Read(strings.NewReader(log))
		if err != nil {
			return // malformed logs must error, not panic
		}
		// Well-formed logs must replay without panicking (errors are
		// fine: the genesis config may be invalid).
		m, rerr := Restore(strings.NewReader(log))
		if rerr == nil && m == nil {
			t.Fatal("Restore returned nil market without error")
		}
		// Torn-tail invariance: a crash mid final write loses only that
		// write. Appending any proper prefix of a record — an
		// unterminated line, or a frame cut anywhere short of its last
		// byte — to a log that ends on a record boundary must not change
		// what Read recovers. (Bytes appended *inside* an already torn
		// frame can complete it into a checksum failure, which is the
		// point of the checksum; an already torn line just grows.)
		_, durable, _, err := Recover(strings.NewReader(log))
		if err != nil {
			t.Fatalf("Read accepted what Recover refuses: %v", err)
		}
		next := endedFrame(beginFrame(nil, int64(len(events))+1, []byte("fuzz"), kindCommand), 8)
		tails := []string{`{"to`}
		for _, cut := range []int{1, 5, frameHeader, len(next) - 1} {
			tails = append(tails, string(next[:cut]))
		}
		if rest := log[durable:]; rest != "" && rest[0] == '{' {
			tails = append(tails, rest+`{"to`)
		}
		for _, tail := range tails {
			torn, terr := Read(strings.NewReader(log[:durable] + tail))
			if terr != nil {
				t.Fatalf("readable log stopped reading with torn tail %q: %v", tail, terr)
			}
			if len(torn) != len(events) {
				t.Fatalf("torn tail %q changed recovered events: %d vs %d", tail, len(torn), len(events))
			}
		}
	})
}

// endedFrame appends payload to a begun frame and seals it.
func endedFrame(frame []byte, payload ...byte) []byte {
	frame = append(frame, payload...)
	endFrame(frame, 0)
	return frame
}
