package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonLineSeeds are logs of JSON-line records, as builds before format 3
// wrote them: the frame reader must refuse them, and the migration read
// them.
var jsonLineSeeds = []string{
	"{bogus",
	`{"seq":1,"op":"genesis","config":{"Seed":1}}`,
	`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"register_buyer","buyer":"b"}`,
	`{"seq":2,"op":"tick"}`,
	`{"seq":1,"op":"genesis"}{"seq":2,"op":"tick"}`,
	// Batch bids, including an empty and a malformed batch.
	`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"register_buyer","buyer":"b"}
{"seq":3,"op":"register_seller","seller":"s"}
{"seq":4,"op":"upload","seller":"s","dataset":"d"}
{"seq":5,"op":"bid_batch","bids":[{"buyer":"b","dataset":"d","amount":2}]}`,
	`{"seq":1,"op":"genesis","config":{"Seed":1}}
{"seq":2,"op":"bid_batch","bids":[]}`,
	`{"seq":1,"op":"bid_batch","bids":[{"buyer":"b"`,
	// Snapshot-headed (compacted) logs, valid and corrupt.
	`{"seq":1,"op":"snapshot","snapshot":{"config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1},"clock":0,"graph":{},"engines":{},"owners":{},"buyers":{},"sellers":{},"revenue":0}}`,
	`{"seq":1,"op":"snapshot","snapshot":{"clock":-5}}`,
	// Torn records: a trailing line without a newline is the one anomaly
	// a crash can leave in such a log.
	`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"regi`,
	`{"seq":1,"op":"genesis","config":{"Engine":{"EpochSize":4,"Candidates":[1,2]},"Seed":1}}
{"seq":2,"op":"tick"}
{"seq":3,"op"`,
	`{"seq":1,"op":"gene`,
}

// v2Seeds is the version-2 fixture, alone and continued with frames,
// whole and torn.
func v2Seeds(f *testing.F) []string {
	v2, err := os.ReadFile(v2LogPath)
	if err != nil {
		f.Fatal(err)
	}
	tail := endedFrame(beginFrame(nil, 21, nil, kindCommand), 8) // a tick, the v2 fixture's next seq
	return []string{string(v2) + string(tail), string(v2) + string(tail[:len(tail)-1]), string(v2)}
}

func FuzzReadNeverPanics(f *testing.F) {
	f.Add("")
	for _, seed := range jsonLineSeeds {
		f.Add(seed)
	}
	// Version-3 frame logs: whole, torn inside the header and the body,
	// a version-2 log continued with frames, a flipped checksum, a
	// flipped payload bit, and lengths from implausible to giant.
	frames := string(bidLog(f, 3))
	bounds := recordBoundaries(f, []byte(frames), 1)
	f.Add(frames)
	f.Add(frames[:bounds[1]+4])
	f.Add(frames[:bounds[2]-3])
	for _, seed := range v2Seeds(f)[:2] {
		f.Add(seed)
	}
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
		// write. Appending any proper prefix of a frame to a log that ends
		// on a record boundary must not change what Read recovers. (Bytes
		// appended *inside* an already torn frame can complete it into a
		// checksum failure, which is the point of the checksum.)
		_, durable, _, err := Recover(strings.NewReader(log))
		if err != nil {
			t.Fatalf("Read accepted what Recover refuses: %v", err)
		}
		next := endedFrame(beginFrame(nil, int64(len(events))+1, []byte("fuzz"), kindCommand), 8)
		for _, cut := range []int{1, 5, frameHeader, len(next) - 1} {
			torn, terr := Read(strings.NewReader(log[:durable] + string(next[:cut])))
			if terr != nil {
				t.Fatalf("readable log stopped reading with torn tail %q: %v", next[:cut], terr)
			}
			if len(torn) != len(events) {
				t.Fatalf("torn tail %q changed recovered events: %d vs %d", next[:cut], len(torn), len(events))
			}
		}
		// A `{` after the durable prefix is no crash's doing — no writer of
		// this format emits one — so it is refused by name, not dropped.
		for _, tail := range []string{"{", `{"to`, "{\"seq\":1}\n"} {
			if _, terr := Read(strings.NewReader(log[:durable] + tail)); !errors.Is(terr, ErrVersion) {
				t.Fatalf("JSON tail %q after a readable log: %v, want ErrVersion", tail, terr)
			}
		}
	})
}

// FuzzMigrateRecords fuzzes the one JSON-record reader left, Migrate's,
// with a flat log. It must never panic, and whatever it accepts,
// ScanRecords reads back from the store it made: the same records, with
// the same seqs and traces and the same Event views — a head's with its
// "v" restamped, a JSON line's as the command it records (fields its op
// does not carry are not part of the view), a frame's as it was.
func FuzzMigrateRecords(f *testing.F) {
	for _, seed := range append(jsonLineSeeds, v2Seeds(f)...) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, log string) {
		flat := filepath.Join(t.TempDir(), "flat.log")
		if err := os.WriteFile(flat, []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		dir, files, err := Migrate(flat)
		if err != nil {
			return // refused by name, not panicked on
		}
		want := legacyViews(t, log)
		var got []Event
		if files > 0 {
			if _, _, err := Scan(bytes.NewReader(storeBody(t, dir)), 1, func(e Event) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatalf("the migrated store does not read back: %v", err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("migration kept %d records of %d", len(got), len(want))
		}
		for i := range want {
			wj, _ := json.Marshal(want[i])
			gj, _ := json.Marshal(got[i])
			if !bytes.Equal(wj, gj) {
				t.Fatalf("record %d migrated as\n%s\nwant\n%s", i+1, gj, wj)
			}
		}
	})
}

// legacyViews is FuzzMigrateRecords' oracle: the Event view of every
// durable record of a flat log Migrate accepted, read without it.
func legacyViews(t *testing.T, log string) []Event {
	var views []Event
	for strings.HasPrefix(log, "{") {
		line, rest, ok := strings.Cut(log, "\n")
		if !ok {
			return views // a torn final line
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("Migrate accepted a line that does not parse: %v", err)
		}
		if e.Op == OpGenesis || e.Op == OpSnapshot {
			e.V = FormatVersion
		} else {
			cmd, err := CommandFromEvent(e)
			if err != nil {
				t.Fatalf("Migrate accepted a line that records no command: %v", err)
			}
			seq, trace := e.Seq, e.Trace
			if e, err = EventFromCommand(cmd); err != nil {
				t.Fatal(err)
			}
			e.Seq, e.Trace = seq, trace
		}
		views = append(views, e)
		log = rest
	}
	if _, _, err := Scan(strings.NewReader(log), int64(len(views))+1, func(e Event) error {
		views = append(views, e)
		return nil
	}); err != nil {
		t.Fatalf("Migrate accepted frames that do not read: %v", err)
	}
	return views
}

// endedFrame appends payload to a begun frame and seals it.
func endedFrame(frame []byte, payload ...byte) []byte {
	frame = append(frame, payload...)
	endFrame(frame, 0)
	return frame
}
