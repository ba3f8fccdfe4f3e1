// Package journal provides durable, replayable persistence for the
// market arbiter via command sourcing: every successful mutating
// operation (registrations, uploads, compositions, bids, clock ticks)
// is appended to a log as the command that produced it, and replaying
// the log into a fresh market re-applies those commands through the
// same deterministic core (internal/command) the live market runs —
// engines are deterministic in their seeds, so the same command
// sequence yields the same prices, allocations, waits and ledgers.
//
// A record is one checksummed binary frame around the command's
// command.EncodeBinary bytes (frame.go): the bytes its request arrived
// as, which the commit stage applied and are what the segment holds,
// the replication feed fans out, a follower's commit stage applies
// again and replay applies. Event is the decoded view of a record — what
// inspection tooling, `marketctl journal-info -dump` and tests read —
// and the line format of logs written before v3; CommandFromEvent and
// EventFromCommand convert between it and the typed command.
//
// The first record is a head carrying the market configuration
// (genesis) or full state (snapshot), so a log is self-contained:
// Restore reads a log and returns a running market.
//
// # Format versions
//
// The head record carries the format version of the build that started
// the log in its "v" field; see FormatVersion. This build reads version 3
// only: a head, seghead or record of any other version fails with
// ErrVersion rather than being read under guessed semantics, and what an
// older build wrote is rewritten once by Migrate (`marketctl
// journal-migrate`).
//
// # Crash safety
//
// Each group of records is encoded off to the side and handed to the
// sink as one Write call, so the only way a record lands partially is
// the operating system or hardware dying mid-write. Readers therefore
// tolerate exactly one trailing torn record — a final frame shorter
// than its declared length — by truncating to the last complete record;
// anything else (a failed checksum, an unparseable record, a sequence
// gap) is a hard error carrying the expected sequence number and byte
// offset, because no crash can produce it (frame.go, "Torn versus
// corrupt"). A writer whose sink fails is poisoned: the failed record
// may be torn on disk, so every subsequent append returns the original
// error rather than writing after the tear. With WithFsync, every
// append is fsynced before the corresponding operation is acknowledged;
// Close always syncs syncable sinks. The one journal that owns files is
// the segmented Store (store.go); NewMarket and Restore run the same
// writer and reader over any io.Writer and io.Reader.
package journal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// FormatVersion is the journal format stamped on the head record of
// every log written by this release. Version history:
//
//	0 — implicit (no "v" field): the PR-1/PR-2 event log, JSON lines.
//	2 — the command-core log: op names coincide with internal/command
//	    op names and replay is an Apply loop. Byte-compatible with
//	    version 0 except for the head's "v" field.
//	3 — checksummed binary frames (frame.go) instead of JSON lines.
//	    Migrate rewrites a version-0 or version-2 log or store as
//	    version 3, record for record (CommandFromEvent).
//
// (Version 1 is skipped: a pre-release draft used it and rejecting it
// outright is safer than guessing which draft wrote a given log.)
const FormatVersion = 3

// Op enumerates journaled operations. Every Op except the two head
// records (OpGenesis, OpSnapshot) names the internal/command operation
// it records — the string values match command.Op so a journal record
// is a canonical command encoding plus sequencing metadata.
type Op string

// Journaled operations.
const (
	OpGenesis        Op = "genesis"
	OpRegisterBuyer  Op = "register_buyer"
	OpRegisterSeller Op = "register_seller"
	OpUpload         Op = "upload"
	OpCompose        Op = "compose"
	OpBid            Op = "bid"
	// OpBidBatch records the successful bids of one batch submission in
	// the order they were applied, so replay reproduces the batch with a
	// single event.
	OpBidBatch Op = "bid_batch"
	OpTick     Op = "tick"
	OpWithdraw Op = "withdraw"
	// OpSnapshot heads a compacted flat log: it embeds the full market
	// state at the moment of compaction, and the remaining events replay
	// on top of it. No writer produces one any more; readers keep it so
	// such a log, once migrated, still opens.
	OpSnapshot Op = "snapshot"
)

// BatchBid is one entry of an OpBidBatch event.
type BatchBid struct {
	Buyer   string  `json:"buyer"`
	Dataset string  `json:"dataset"`
	Amount  float64 `json:"amount"`
}

// Event is one journal record. Field presence depends on Op.
type Event struct {
	Seq int64 `json:"seq"`
	Op  Op    `json:"op"`
	// V is the log's format version, stamped on head records (genesis
	// and snapshot) only; body records inherit the head's version.
	// Absent (0) on logs written before versioning.
	V            int              `json:"v,omitempty"`
	Buyer        string           `json:"buyer,omitempty"`
	Seller       string           `json:"seller,omitempty"`
	Dataset      string           `json:"dataset,omitempty"`
	Constituents []string         `json:"constituents,omitempty"`
	Amount       float64          `json:"amount,omitempty"`
	Bids         []BatchBid       `json:"bids,omitempty"`
	Config       *market.Config   `json:"config,omitempty"`
	Snapshot     *market.Snapshot `json:"snapshot,omitempty"`
	// Trace is the request ID of the HTTP or wire request that produced
	// this event, when one was in flight — it joins a journal record to
	// the bid-lifecycle trace and the structured request log, across
	// process boundaries when the transport propagated the ID. Replay
	// ignores it.
	Trace string `json:"trace,omitempty"`
}

// Sentinel errors.
var (
	ErrNoGenesis   = errors.New("journal: log does not start with a genesis event")
	ErrSeqGap      = errors.New("journal: sequence gap or reorder")
	ErrBadEvent    = errors.New("journal: malformed event")
	ErrReplay      = errors.New("journal: replay diverged")
	ErrClosed      = errors.New("journal: writer closed")
	ErrDoubleStart = errors.New("journal: genesis already written")
	ErrVersion     = errors.New("journal: unsupported format version")
)

// syncer is the durability hook *os.File (and fault-injection shims)
// provide.
type syncer interface{ Sync() error }

// groupSink is a sink that accounts in records as well as bytes (the
// segmented Store rotates and checkpoints by record count): the writer
// knows how many records a group holds and says so, where a plain
// io.Writer sink just gets the bytes.
type groupSink interface {
	writeGroup(p []byte, records int) (int, error)
}

// Option configures a Writer (and the constructors that build one).
type Option func(*Writer)

// WithFsync makes the writer fsync the sink after every append, so an
// acknowledged operation survives an OS or power crash, not just a
// process crash. It is a no-op for sinks without a Sync method.
func WithFsync() Option {
	return func(w *Writer) { w.fsync = true }
}

// WithGroupCommit sets the commit window: how long the leader of a
// group — the append that found no group forming — waits for followers
// to pile on before it runs the stage. Every writer groups (see Writer);
// the window only trades latency for bigger groups. A window of 0 (the
// default) still batches: every record that arrives while the previous
// group is in the stage joins the next group, so group size tracks the
// append parallelism.
func WithGroupCommit(window time.Duration) Option {
	return func(w *Writer) { w.groupWindow = window }
}

// WithTelemetry instruments the writer: an fsync latency histogram
// (shield_journal_fsync_seconds, which the repository benchmark counts
// fsyncs from), a per-record size histogram, group-size and leader-wait
// histograms, counters for appended bytes and failed appends, three
// gauges a store sets once when it is opened — how long recovery took,
// how much of that deriving the read views took and how many records it
// replayed (shield_journal_recovery_seconds/_views_seconds/_records; the
// only instruments OpenFollower registers, its writer being
// uninstrumented) — and the journal's stages on the shared
// shield_stage_seconds family (group_commit.queue_wait/append/fsync), all
// registered on t's registry.
// Latency observations stamp the requesting trace's ID as a bucket
// exemplar, so a slow fsync on /metrics links to its full trace on
// /debug/traces. Register at most one writer per registry (families
// panic on double registration by design).
func WithTelemetry(t *obs.Telemetry) Option {
	return func(w *Writer) { w.telemetry = t }
}

// writerTelemetry holds a writer's pre-bound instruments; nil on
// uninstrumented writers. The st* cells are this writer's stages on the
// shared shield_stage_seconds family.
type writerTelemetry struct {
	fsyncLatency *obs.Histogram
	recordBytes  *obs.Histogram
	groupSize    *obs.Histogram
	leaderWait   *obs.Histogram
	bytesTotal   *obs.Counter
	appendErrors *obs.Counter

	stQueueWait *obs.Histogram // group_commit.queue_wait
	stAppend    *obs.Histogram // group_commit.append
	stFsync     *obs.Histogram // group_commit.fsync
}

func newWriterTelemetry(t *obs.Telemetry) *writerTelemetry {
	r := t.Registry
	return &writerTelemetry{
		fsyncLatency: r.Histogram("shield_journal_fsync_seconds",
			"Time to fsync the journal after a group's write (WithFsync only); the same interval as shield_stage_seconds{stage=\"group_commit.fsync\"}, kept because the repository benchmark counts fsyncs from it.",
			obs.LatencyBuckets()),
		recordBytes: r.Histogram("shield_journal_record_bytes",
			"Encoded size of one journal record.",
			obs.SizeBuckets()),
		groupSize: r.Histogram("shield_journal_group_records",
			"Records coalesced into one group-commit flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		leaderWait: r.Histogram("shield_journal_group_leader_wait_seconds",
			"Time a group leader spends in the commit window plus waiting for the previous group's flush.",
			obs.LatencyBuckets()),
		bytesTotal: r.Counter("shield_journal_appended_bytes_total",
			"Bytes appended to the journal."),
		appendErrors: r.Counter("shield_journal_append_errors_total",
			"Appends that failed and poisoned the writer."),
		stQueueWait: t.Stage("group_commit.queue_wait"),
		stAppend:    t.Stage("group_commit.append"),
		stFsync:     t.Stage("group_commit.fsync"),
	}
}

// recovered reports on t's registry what opening a store cost; a no-op
// without telemetry.
func recovered(t *obs.Telemetry, st *storeState) {
	if t != nil {
		t.Registry.Gauge("shield_journal_recovery_seconds",
			"Time this process spent recovering its store when it opened it: segment walk, checkpoint load, tail replay and view derivation.").Set(st.took.Seconds())
		t.Registry.Gauge("shield_journal_recovery_views_seconds",
			"Time deriving the market's read views from the recovered state took when this process opened its store; part of shield_journal_recovery_seconds.").Set(st.views.Seconds())
		t.Registry.Gauge("shield_journal_recovery_records",
			"Records replayed past the checkpoint when this process opened its store.").Set(float64(st.replayed))
	}
}

// Writer appends records to a log and, for a journaled market, is the
// market's one sequencer: the commit stage. Safe for concurrent use.
//
// # The commit stage
//
// Callers hand the writer a command's binary encoding (or, through
// Append, a record to log without applying it). One goroutine at a time
// — holding stageMu — walks a group of them in arrival order: apply the
// bytes to the live market as replay would (a rejected command completes
// with its error, consumes no sequence number and logs nothing), stamp
// the next sequence number, frame those same bytes in the group buffer;
// then one sink Write (and one fsync, WithFsync) for the whole group;
// then publish the group's effects to the market's read views, run the
// commit hooks (which see the framed bytes), and only then wake the
// callers. The
// log is therefore exactly the order the market applied, the market is
// exactly at the last written seq whenever a hook runs, and no reader
// sees a command before it reached the sink.
//
// Every append is a member of a group. An append joins the forming
// group, or creates it and leads it; the leader waits out the commit
// window (WithGroupCommit), then runs the stage, while the next group
// keeps forming behind it. Each member is acknowledged only after its
// group's write and sync, so grouping changes latency and fsync
// amortization, never durability: a lone caller is a group of one.
//
// A sink failure poisons the writer (see "Crash safety" above): the
// market has applied commands the log does not hold, so every member of
// the group gets the error, nothing is published, and every later
// append returns the original error. Groups reach the sink in formation
// order, so the log stays an unbroken sequence of complete records plus
// at most one torn tail.
type Writer struct {
	sink        io.Writer
	fsync       bool
	telemetry   *obs.Telemetry // WithTelemetry's; tel is bound from it
	tel         *writerTelemetry
	groupWindow time.Duration

	// live, when set (journaled markets), is the market the stage applies
	// commands to and publishes on; a bare writer only appends records.
	live *market.Market
	// onGroup, when set (store-backed markets), runs once per written
	// group inside the stage, with the group's last seq and record count
	// — the store's checkpoint cadence.
	onGroup func(lastSeq int64, records int)

	// stageMu is held across one whole commit stage, so groups are
	// applied, written and published in formation order. buf is the
	// stage's group buffer: the frames of the group being committed (id
	// spells one's trace). Lock order: stageMu, then the market's writer
	// mutex, then mu.
	stageMu sync.Mutex
	buf, id []byte

	// mu guards the writer's lifecycle, its durable high-water mark and
	// the forming group.
	mu      sync.Mutex
	seq     int64 // newest record that reached the sink
	started bool
	closed  bool
	err     error // sticky append failure
	// commit, when set (OnCommit), observes every committed record in
	// strict sequence order — the hook behind the replication feed.
	commit func(Record)
	// cur is the forming group concurrent appends pile onto; free holds
	// groups every member is done with, to be formed again. groups and
	// maxGroup are diagnostics (tests read them; telemetry exports the
	// histogram).
	cur      *commitGroup
	free     []*commitGroup
	groups   int64
	maxGroup int
}

// member is one caller's place in a commit group: what it asked for and,
// once the stage has run, what came of it.
type member struct {
	ctx context.Context
	// body is the request, a command's binary encoding read only until
	// submit returns; a batch's per-entry outcomes land in res. logOnly
	// marks the writer's own records, logged without being applied:
	// Append's body under its trace, or the genesis head. replicated
	// marks a record a leader logged, which a follower applies whole.
	body       []byte
	res        []market.BidResult
	logOnly    bool
	replicated bool
	trace      string
	head       *Event

	// Once logged is set the member's record is seq, framed at
	// buf[off:end] of the stage's group buffer.
	logged   bool
	seq      int64
	off, end int

	ev  command.Event
	evs []command.Event // a batch's
	err error
}

// commitGroup is one batch of members bound for a single sink Write
// (plus one fsync). Members join under the writer mutex; the member that
// created the group leads the stage. done closes once the group's fate
// is decided; whoever first has to wait for that makes it — a second
// member, Close — so a leader nobody joined never has one. unread counts
// the members yet to copy their slot out; the last one recycles the
// group.
type commitGroup struct {
	members []member
	done    chan struct{}
	unread  atomic.Int32
}

// NewWriter wraps w. Call Genesis before any other append.
func NewWriter(w io.Writer, opts ...Option) *Writer {
	jw := &Writer{sink: w}
	for _, o := range opts {
		o(jw)
	}
	if jw.telemetry != nil {
		jw.tel = newWriterTelemetry(jw.telemetry)
	}
	return jw
}

// OnCommit installs fn as the writer's commit hook: it is invoked once
// per committed record, in strict sequence order, with the record
// exactly as written — its Payload is the very bytes the sink holds,
// valid only until fn returns — after the record's group reached the
// sink (and was fsynced) and was published, before any member of the
// group is woken. Failed appends never reach the hook. fn must not call
// back into the writer or take the market's writer mutex — it runs
// inside the commit stage — and should return quickly.
//
// Install the hook before traffic flows (records appended while no
// hook is set are not replayed to a later hook), and install at most
// one: this is the feed point for replication, not a general event
// bus.
func (w *Writer) OnCommit(fn func(Record)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.commit = fn
}

// LastSeq returns the sequence number of the newest record that reached
// the sink (head included), 0 when nothing has been written: sequence
// numbers are assigned at flush, so this is the durable high-water mark
// (with WithFsync; otherwise the mark of what the sink accepted).
func (w *Writer) LastSeq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Genesis writes the configuration header. Must be called exactly once,
// first.
func (w *Writer) Genesis(cfg market.Config) error {
	w.mu.Lock()
	started := w.started
	w.started = true
	w.mu.Unlock()
	if started {
		return ErrDoubleStart
	}
	head := Event{Op: OpGenesis, V: FormatVersion, Config: &cfg}
	return w.submit(member{ctx: context.Background(), head: &head, logOnly: true}).err
}

// Append journals the command e describes without applying it anywhere
// (Seq is assigned by the writer) — the bare writer's entry point.
func (w *Writer) Append(e Event) error {
	return w.AppendCtx(context.Background(), e)
}

// AppendCtx is Append with request context: when ctx carries a sampled
// obs trace, the record's commit lands as spans on it —
// group_commit.queue_wait/append/fsync (the write spans land on the
// group leader's trace; a follower sees only its queue wait).
func (w *Writer) AppendCtx(ctx context.Context, e Event) error {
	cmd, err := CommandFromEvent(e)
	var body []byte
	if err == nil {
		body, err = command.AppendBinary(make([]byte, 0, 64), cmd)
	}
	if err != nil {
		return err
	}
	return w.submit(member{ctx: ctx, body: body, logOnly: true, trace: e.Trace}).err
}

// submit runs one member through the commit stage as part of the
// forming group and returns it once its fate is decided.
func (w *Writer) submit(mb member) member {
	w.mu.Lock()
	switch {
	case w.closed:
		mb.err = ErrClosed
	case !w.started:
		mb.err = ErrNoGenesis
	default:
		mb.err = w.err
	}
	if mb.err != nil {
		w.mu.Unlock()
		return mb
	}
	g := w.cur
	leader := g == nil
	if leader {
		if n := len(w.free); n > 0 {
			g, w.free = w.free[n-1], w.free[:n-1]
		} else {
			g = new(commitGroup)
		}
		w.cur = g
	} else if g.done == nil {
		g.done = make(chan struct{})
	}
	i, done := len(g.members), g.done
	g.members = append(g.members, mb)
	w.mu.Unlock()

	waitStart := time.Now()
	if !leader {
		// A follower's queue wait runs from enqueue to the group's fate:
		// the leader applying the members ahead of it, the write, the
		// sync. It is the price of riding someone else's fsync.
		<-done
		wait := time.Since(waitStart)
		obs.TraceFrom(mb.ctx).AddSpan("group_commit.queue_wait", waitStart, wait)
		if w.tel != nil {
			w.tel.stQueueWait.ObserveTrace(wait.Seconds(), obs.ExemplarID(mb.ctx))
		}
	} else {
		// Leader: give followers the commit window to pile on, then run
		// the stage. The sleep happens before taking stageMu, so it
		// overlaps the previous group's stage instead of adding to it, and
		// w.cur stays open until this leader holds stageMu — the next
		// group forms while the previous one applies, writes and syncs.
		if w.groupWindow > 0 {
			time.Sleep(w.groupWindow)
		}
		w.stage(g, waitStart)
	}
	mb = g.members[i]
	if g.unread.Add(-1) == 0 {
		clear(g.members) // drop what the members referenced
		g.members, g.done = g.members[:0], nil
		w.mu.Lock()
		w.free = append(w.free, g)
		w.mu.Unlock()
	}
	return mb
}

// stage is the commit stage; see Writer. waitStart is when the group's
// leader began waiting (window start): everything up to the stageMu
// acquisition is charged to group_commit.queue_wait.
func (w *Writer) stage(g *commitGroup, waitStart time.Time) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	wait := time.Since(waitStart)
	w.mu.Lock()
	if w.cur == g {
		w.cur = nil // no further members may join
	}
	err, seq, commit := w.err, w.seq, w.commit
	w.mu.Unlock()
	// Membership is final: nobody else makes done or joins members.
	g.unread.Store(int32(len(g.members)))
	if g.done != nil {
		defer close(g.done)
	}
	ctx := g.members[0].ctx // the stage's spans land on the leader's trace
	obs.TraceFrom(ctx).AddSpan("group_commit.queue_wait", waitStart, wait)
	if w.tel != nil {
		w.tel.leaderWait.Observe(wait.Seconds())
		w.tel.stQueueWait.ObserveTrace(wait.Seconds(), obs.ExemplarID(ctx))
	}

	var live market.Stage
	if err == nil && w.live != nil {
		live = w.live.Stage()
		live.Lock()
		defer live.Unlock()
	}
	w.buf = w.buf[:0]
	records := 0
	for i := range g.members {
		if err != nil {
			break // an earlier group tore the sink, or this one cannot be logged
		}
		mb := &g.members[i]
		payload := mb.body
		if !mb.logOnly {
			if payload = mb.apply(live); payload == nil {
				continue
			}
		}
		mb.seq = seq + int64(records) + 1
		if eerr := w.encode(mb, payload); eerr != nil {
			eerr = fmt.Errorf("journal: encoding event %d: %w", mb.seq, eerr)
			if mb.logOnly {
				mb.err = eerr // nothing happened; the writer stays usable
			} else {
				err = eerr // the market moved and the log cannot follow
			}
			continue
		}
		mb.logged = true
		records++
		if w.tel != nil {
			w.tel.recordBytes.Observe(float64(mb.end - mb.off))
		}
	}
	if err == nil && records > 0 {
		err = w.write(ctx, records)
	}
	if err != nil {
		w.mu.Lock()
		if w.err == nil {
			if w.tel != nil {
				w.tel.appendErrors.Inc()
			}
			w.err = err
		}
		w.mu.Unlock()
		for i := range g.members {
			g.members[i].err = err
		}
		return
	}

	if records > 0 {
		w.mu.Lock()
		w.seq = seq + int64(records)
		w.groups++
		if records > w.maxGroup {
			w.maxGroup = records
		}
		w.mu.Unlock()
	}
	if w.live != nil {
		for i := range g.members {
			mb := &g.members[i]
			live.Publish(mb.ctx, mb.evs...)
			live.Publish(mb.ctx, mb.ev) // a zero Event publishes nothing
		}
	}
	if records == 0 {
		return
	}
	if w.onGroup != nil {
		w.onGroup(seq+int64(records), records)
	}
	if commit != nil {
		for i := range g.members {
			if mb := &g.members[i]; mb.logged {
				rec := Record{Size: mb.end - mb.off} // read back: a trace is text only here
				_ = parseBody(&rec, w.buf[mb.off+frameHeader:mb.end])
				commit(rec)
			}
		}
	}
}

// encode frames payload as mb's record at the end of the group buffer,
// spelling an applied member's request ID into it; a head's payload is
// its Event as JSON. On error the buffer is left as it was.
func (w *Writer) encode(mb *member, payload []byte) error {
	kind := kindCommand
	if mb.head != nil {
		mb.head.Seq = mb.seq
		head, err := json.Marshal(mb.head)
		if err != nil {
			return err
		}
		kind, payload = kindHead, head
	}
	w.id = append(w.id[:0], mb.trace...)
	if !mb.logOnly {
		w.id = obs.AppendRequestID(w.id, mb.ctx)
	}
	mb.off = len(w.buf)
	buf := append(beginFrame(w.buf, mb.seq, w.id, kind), payload...)
	if len(buf)-mb.off-frameHeader > maxFrameBody {
		return fmt.Errorf("record of %d bytes exceeds the %d-byte frame limit", len(buf)-mb.off, maxFrameBody)
	}
	endFrame(buf, mb.off)
	w.buf, mb.end = buf, len(buf)
	return nil
}

// apply runs the member's request through the market and returns the
// bytes to record: the request itself when it applied, nil when it did
// not. A batch applies entry by entry, failures skipped
// (market.Stage.ApplyBatch), and records the entries that applied,
// re-encoded as one bid_batch — nil when none did. A replicated record
// applies whole, as recovery applies it (market.Stage.Replay), and is
// recorded as the leader logged it.
func (mb *member) apply(live market.Stage) []byte {
	if mb.replicated {
		if mb.evs, mb.err = live.Replay(mb.body, nil); mb.err != nil {
			return nil
		}
		return mb.body
	}
	if command.IsBatch(mb.body) {
		var applied []command.SubmitBid
		mb.evs, applied = live.ApplyBatch(mb.ctx, mb.body, mb.res)
		rec, _ := command.EncodeBinary(command.BidBatch{Bids: applied})
		return rec
	}
	if mb.ev, mb.err = live.Apply(mb.ctx, mb.body); mb.err != nil {
		return nil
	}
	return mb.body
}

// write hands the stage's buffer to the sink as one Write and, with
// WithFsync, syncs it.
func (w *Writer) write(ctx context.Context, records int) error {
	var stAppend *obs.Histogram
	if w.tel != nil {
		stAppend = w.tel.stAppend
	}
	endAppend := obs.StageTimer(ctx, stAppend, "group_commit.append")
	var n int
	var err error
	if gs, ok := w.sink.(groupSink); ok {
		n, err = gs.writeGroup(w.buf, records)
	} else {
		n, err = w.sink.Write(w.buf)
	}
	endAppend.End()
	if err != nil {
		return fmt.Errorf("journal: writing %d records: %w", records, err)
	}
	if w.tel != nil {
		w.tel.bytesTotal.Add(uint64(n))
		w.tel.groupSize.Observe(float64(records))
	}
	s, ok := w.sink.(syncer)
	if !w.fsync || !ok {
		return nil
	}
	endFsync := obs.StartSpan(ctx, "group_commit.fsync")
	start := time.Now()
	err = s.Sync()
	if w.tel != nil {
		id := obs.ExemplarID(ctx)
		w.tel.fsyncLatency.ObserveSinceTrace(start, id)
		w.tel.stFsync.ObserveSinceTrace(start, id)
	}
	endFsync.End()
	if err != nil {
		return fmt.Errorf("journal: syncing %d records: %w", records, err)
	}
	return nil
}

// Healthy reports whether the writer can accept appends: nil while
// open and unpoisoned, ErrClosed after Close, and the original sticky
// append failure after a sink error. It backs readiness probes.
func (w *Writer) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

// Close marks the writer closed and syncs syncable sinks, so a graceful
// shutdown is durable even without WithFsync. Further appends fail with
// ErrClosed. Close first drains the pending group — its members were
// promised an answer and get a real one. Close does
// not close the sink; callers that opened a file own closing it
// (Market.Close does both).
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	var pending chan struct{}
	if g := w.cur; g != nil {
		if g.done == nil {
			g.done = make(chan struct{})
		}
		pending = g.done
	}
	w.mu.Unlock()
	if pending != nil {
		<-pending // the group's leader is mid-window or mid-stage; let it finish
	}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if s, ok := w.sink.(syncer); ok {
		if err := s.Sync(); err != nil {
			w.err = fmt.Errorf("journal: syncing on close: %w", err)
			return w.err
		}
	}
	return nil
}

// Scan is ScanRecords with each record decoded to its Event view: the
// reader for inspection tooling and tests. Recovery paths use
// ScanRecords directly and never build an Event for a body record.
func Scan(r io.Reader, firstSeq int64, fn func(Event) error) (durable int64, torn bool, err error) {
	return ScanRecords(r, firstSeq, func(rec Record) error {
		e, err := rec.Event()
		if err != nil {
			return err
		}
		return fn(e)
	})
}

// stateFromHead builds the state a log head describes: a genesis head
// seeds a fresh state from its recorded config, a snapshot head restores
// full state. A head of any version but FormatVersion fails with
// ErrVersion; anything that is not a well-formed head fails with
// ErrNoGenesis.
func stateFromHead(e Event) (*command.State, error) {
	if e.V != FormatVersion && (e.Op == OpGenesis || e.Op == OpSnapshot) {
		return nil, errNeedsMigrate(fmt.Sprintf("head record %d has version %d", e.Seq, e.V), "<file>")
	}
	switch {
	case e.Op == OpGenesis && e.Config != nil:
		st, err := command.NewState(*e.Config)
		if err != nil {
			return nil, fmt.Errorf("journal: genesis config: %w", err)
		}
		return st, nil
	case e.Op == OpSnapshot && e.Snapshot != nil:
		st, err := command.RestoreState(*e.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("journal: snapshot head: %w", err)
		}
		return st, nil
	}
	return nil, ErrNoGenesis
}

// replay is streaming recovery: the head record builds the state, and
// every later one is applied straight from its payload
// (command.ApplyEncoded). It runs on the bare state — no writer mutex,
// no stage timers, nothing published per record — and the caller wraps
// the final state in a market once (market.FromState), which derives
// the read views exactly as a checkpoint load does.
type replay struct {
	st  *command.State
	evs []command.Event // scratch: replay keeps no event
}

func (rp *replay) record(rec Record) error {
	if rp.st == nil {
		// A body record here decodes to a non-head Event, which
		// stateFromHead refuses with ErrNoGenesis.
		head, err := rec.Event()
		if err == nil {
			rp.st, err = stateFromHead(head)
		}
		return err
	}
	var err error
	if rp.evs, err = command.ApplyEncoded(rp.st, rec.Payload, rp.evs[:0]); err != nil {
		return fmt.Errorf("%w: event %d: %w", ErrReplay, rec.Seq, err)
	}
	return nil
}

// Restore reads a log and rebuilds the market it describes in one
// streaming pass: the head seeds the state and every subsequent record
// applies as it is scanned, so no whole-log []Event slice ever exists. A
// torn trailing record is dropped; a log whose very head is torn (a
// crash during the first append) fails with ErrNoGenesis.
func Restore(r io.Reader) (*market.Market, error) {
	var rp replay
	if _, _, err := ScanRecords(r, 1, rp.record); err != nil {
		return nil, err
	}
	if rp.st == nil {
		return nil, ErrNoGenesis
	}
	return market.FromState(rp.st), nil
}

// syncFileHook is the post-truncation fsync; crash tests swap it to
// inject a failure at exactly that point. Production always points at
// (*os.File).Sync.
var syncFileHook = (*os.File).Sync

// repairTornTail truncates path to its durable prefix and makes the
// repair itself durable: the file is fsynced, then its parent
// directory. A bare truncate only reaches the page cache, so a crash
// immediately after recovery could resurrect the torn bytes and the
// writer would then append after the tear — mid-log corruption the next
// recovery cannot repair.
func repairTornTail(path string, durable int64) error {
	if err := os.Truncate(path, durable); err != nil {
		return fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: reopening %s after tail repair: %w", path, err)
	}
	err = syncFileHook(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: syncing repaired tail of %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("journal: syncing directory after tail repair of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Market is a market.Market whose every write method goes through the
// journal's commit stage (market.SetRoute): applied, logged and
// published in one order. Reads pass through to the embedded market's
// views, which the stage publishes only after a command's group reached
// the sink.
type Market struct {
	*market.Market
	w *Writer
	// store is the segmented store a persistent market (OpenStore)
	// commits to — the writer's sink, closed by Close after the final
	// sync; nil over a plain sink (NewMarket).
	store *Store
}

// Store returns the segmented store backing this market, nil over a
// plain sink (NewMarket).
func (m *Market) Store() *Store { return m.store }

// NewMarket builds a market from cfg and a journal writing to sink,
// writing the genesis record immediately.
func NewMarket(cfg market.Config, sink io.Writer, opts ...Option) (*Market, error) {
	m, err := market.New(cfg)
	if err != nil {
		return nil, err
	}
	w := NewWriter(sink, opts...)
	w.live = m
	if err := w.Genesis(cfg); err != nil {
		return nil, err
	}
	return journaled(m, w, nil), nil
}

// RestoreFollower builds a replication follower's market without a
// store: the state Snapshot.Canonical's bytes hold, journaled from seq
// on over io.Discard (OpenFollower and ReseedFollower give a follower
// its store).
func RestoreFollower(snapshot []byte, seq int64) (*Market, error) {
	snap, err := command.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	st, err := command.RestoreState(snap)
	if err != nil {
		return nil, err
	}
	return following(market.FromState(st), io.Discard, nil, seq), nil
}

// following journals m from seq on, over sink and s, the store behind
// it if any, as a follower's market: its writes are a leader's records,
// each applied whole by the commit stage (member.apply) and written only
// if it applied. A refusal of one that decodes, perhaps partway through
// a batch, may leave the market past the log, so s takes nothing more.
// The writer is uninstrumented.
func following(m *market.Market, sink io.Writer, s *Store, seq int64) *Market {
	w := NewWriter(sink)
	w.live, w.started, w.seq = m, true, seq
	if s != nil {
		w.onGroup = s.committed
	}
	market.SetRoute(m, func(ctx context.Context, body []byte, _ []market.BidResult) (command.Event, error) {
		err := w.submit(member{ctx: ctx, body: body, replicated: true}).err
		if s != nil && err != nil && !errors.Is(err, command.ErrMalformed) && !errors.Is(err, command.ErrUnknownOp) {
			s.poison(fmt.Errorf("journal: replicated record %d refused: %w", w.LastSeq()+1, err))
		}
		return command.Event{}, err
	})
	return &Market{Market: m, w: w, store: s}
}

// journaled routes m's writes through w's commit stage.
func journaled(m *market.Market, w *Writer, s *Store) *Market {
	market.SetRoute(m, func(ctx context.Context, body []byte, res []market.BidResult) (command.Event, error) {
		return w.submit(member{ctx: ctx, body: body, res: res}).answer()
	})
	return &Market{Market: m, w: w, store: s}
}

// answer is a routed write's reply once the stage has run: body, read
// only until the write returns, was recorded as it is if it applied,
// and a journal failure takes precedence over the command's own error.
// A bid_batch's entries were answered in res (market.Stage.ApplyBatch),
// and a journal failure then fails the entries that applied, since none
// persisted.
func (mb member) answer() (command.Event, error) {
	if !command.IsBatch(mb.body) {
		return mb.ev, mb.err
	}
	for i := range mb.res {
		if mb.res[i].Err == nil {
			mb.res[i].Err = mb.err
		}
	}
	return command.Event{}, nil
}

// TestUnorderedCommit reintroduces the defect the commit stage exists
// to rule out: after it, every write is applied and published on its
// own (the stage's own member.apply, outside the stage), yield runs, and
// only then is the settled record queued for a sequence number — so two
// concurrent commands can be logged in the opposite order to the one
// they were applied in. It exists for the torture harness's mutation
// canary, which must catch the resulting replay divergence; production
// code must never call it. Call it before traffic flows.
func (m *Market) TestUnorderedCommit(yield func()) {
	market.SetRoute(m.Market, func(ctx context.Context, body []byte, res []market.BidResult) (command.Event, error) {
		mb := member{ctx: ctx, body: body, res: res}
		live := m.Market.Stage()
		live.Lock()
		rec := mb.apply(live)
		live.Publish(ctx, mb.evs...)
		live.Publish(ctx, mb.ev)
		live.Unlock()
		if rec != nil {
			yield()
			if err := m.w.submit(member{ctx: ctx, body: rec, logOnly: true, trace: obs.RequestIDFrom(ctx)}).err; err != nil {
				mb.err = err
			}
		}
		return mb.answer()
	})
}

// TestLogWithoutApplying journals body as the next record without
// applying it. It exists for the replication drop canary — a follower
// whose seq converges on a state that skipped one command, which only
// the snapshot differential must catch; production code must never
// call it.
func (m *Market) TestLogWithoutApplying(body []byte) error {
	return m.w.submit(member{ctx: context.Background(), body: body, logOnly: true}).err
}

// tickBody is every tick's encoding.
var tickBody, _ = command.EncodeBinary(command.Tick{})

// Tick advances the clock and returns the new period, or the journal's
// error.
func (m *Market) Tick() (int, error) {
	ev, err := m.ApplyEncodedCtx(context.Background(), tickBody, nil)
	if err != nil {
		return 0, err
	}
	return ev.Period, nil
}

// OnCommit installs fn as the journal's commit hook; see Writer.OnCommit.
// It is the attachment point for the replication feed: install it after
// building the market but before serving traffic.
func (m *Market) OnCommit(fn func(Record)) { m.w.OnCommit(fn) }

// CommittedCut cuts the whole market state together with the sequence
// number of the record that produced it. It takes the market's writer
// mutex, which the commit stage holds from a group's first apply to its
// last hook, so the pair is always aligned; on a poisoned journal, whose
// market has applied commands the log does not hold, it returns the
// writer's error instead.
func (m *Market) CommittedCut() (*command.Cut, int64, error) {
	live := m.Market.Stage()
	live.Lock()
	defer live.Unlock()
	if err := m.w.Healthy(); err != nil && !errors.Is(err, ErrClosed) {
		return nil, 0, err
	}
	return live.Cut(), m.w.LastSeq(), nil
}

// LastSeq returns the sequence number of the journal's newest record;
// see Writer.LastSeq.
func (m *Market) LastSeq() int64 {
	return m.w.LastSeq()
}

// Healthy reports whether the market can still accept and persist
// operations: nil while the journal writer is open and unpoisoned, the
// writer's error otherwise. It backs the daemon's readiness probe — a
// market whose journal is poisoned serves reads but must not be sent
// writes. On a store-backed market a failed background checkpoint also
// surfaces here: appends still succeed, but recovery is no longer
// bounded, which is an operational fault.
func (m *Market) Healthy() error {
	if err := m.w.Healthy(); err != nil {
		return err
	}
	if m.store != nil {
		return m.store.Err()
	}
	return nil
}

// Close syncs the journal and closes the store behind it, if there is
// one. After Close every mutating operation fails with ErrClosed.
func (m *Market) Close() error {
	err := m.w.Close()
	if m.store != nil {
		if cerr := m.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
