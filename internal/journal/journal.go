// Package journal provides durable, replayable persistence for the
// market arbiter via command sourcing: every successful mutating
// operation (registrations, uploads, compositions, bids, clock ticks)
// is appended to a JSON-lines log as the command that produced it, and
// replaying the log into a fresh market re-applies those commands
// through the same deterministic core (internal/command) the live
// market runs — engines are deterministic in their seeds, so the same
// command sequence yields the same prices, allocations, waits and
// ledgers. CommandFromEvent and EventFromCommand convert between the
// on-disk record and the typed command; Replay is a CommandFromEvent +
// Apply loop.
//
// The first record is a genesis event carrying the market configuration,
// so a log is self-contained: Restore reads a log and returns a running
// market.
//
// # Format versions
//
// The head record (genesis or snapshot) carries the log's format
// version in its "v" field. Logs written before versioning omit the
// field (version 0) and remain readable forever: their records upgrade
// to commands through CommandFromEvent. Current writers stamp
// FormatVersion. Read rejects versions it does not know with
// ErrVersion rather than guessing at future semantics.
//
// # Crash safety
//
// Each record is encoded off to the side and handed to the sink as one
// Write call, newline-terminated, so the only way a record lands
// partially is the operating system or hardware dying mid-write. Read
// and Restore therefore tolerate exactly one trailing torn record — a
// final line without its newline terminator — by truncating to the last
// complete event; any anomaly before the tail (unparseable line,
// sequence gap) is a hard error carrying the expected sequence number
// and byte offset, because no crash can produce it. A writer whose sink
// fails is poisoned: the failed record may be torn on disk, so every
// subsequent append returns the original error rather than writing
// after the tear. With WithFsync, every append is fsynced before the
// corresponding operation is acknowledged; Close always syncs syncable
// sinks. Compaction builds the replacement log in a temporary sibling
// file, syncs it, and atomically renames it over the original (then
// syncs the directory), so an interrupted compaction leaves either the
// old or the new log — never a hybrid.
package journal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/datamarket/shield/internal/command"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
)

// FormatVersion is the journal format stamped on the head record of
// every log written by this release. Version history:
//
//	0 — implicit (no "v" field): the PR-1/PR-2 event log. Same record
//	    shapes, readable through the CommandFromEvent upgrader.
//	2 — the command-core log: op names coincide with internal/command
//	    op names and replay is an Apply loop. Byte-compatible with
//	    version 0 except for the head's "v" field.
//
// (Version 1 is skipped: a pre-release draft used it and rejecting it
// outright is safer than guessing which draft wrote a given log.)
const FormatVersion = 2

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
	// OpSnapshot heads a compacted log: it embeds the full market state
	// at the moment of compaction, and the remaining events replay on
	// top of it.
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

// Option configures a Writer (and the constructors that build one).
type Option func(*Writer)

// WithFsync makes the writer fsync the sink after every append, so an
// acknowledged operation survives an OS or power crash, not just a
// process crash. It is a no-op for sinks without a Sync method.
func WithFsync() Option {
	return func(w *Writer) { w.fsync = true }
}

// WithGroupCommit coalesces concurrent appends into one sink Write and
// one fsync. An append joins the writer's pending group (creating it
// when there is none); the record that created the group — the leader —
// waits up to window for followers to pile on, then hands the whole
// group to the sink as a single Write call, syncs it (WithFsync), and
// wakes every member. Each member is acknowledged only after its
// group's sync, so the durability guarantee per acknowledged operation
// is unchanged — only the latency (bounded by window plus one flush)
// and the fsync amortization differ. A window of 0 still batches: every
// record that arrives while the previous group is flushing joins the
// next group, so group size tracks the append parallelism.
//
// A group that fails to reach the sink fails every member with the same
// error and poisons the writer — never a prefix of the group silently.
// Groups flush in formation order, so the log remains an unbroken
// sequence of complete records plus at most one torn tail, exactly as
// in per-record mode.
func WithGroupCommit(window time.Duration) Option {
	return func(w *Writer) {
		w.grouped = true
		w.groupWindow = window
	}
}

// WithTelemetry instruments the writer: append and fsync latency
// histograms, a per-record size histogram, group-size and leader-wait
// histograms (WithGroupCommit), counters for appended bytes and failed
// appends, and the journal's stages on the shared shield_stage_seconds
// family (group_commit.queue_wait/append/fsync when grouped,
// journal.append/fsync otherwise), all registered on t's registry.
// Latency observations stamp the requesting trace's ID as a bucket
// exemplar, so a slow fsync on /metrics links to its full trace on
// /debug/traces. Register at most one writer per registry (families
// panic on double registration by design); short-lived internal
// writers, like the one Compact builds, stay uninstrumented.
func WithTelemetry(t *obs.Telemetry) Option {
	return func(w *Writer) {
		r := t.Registry
		w.tel = &writerTelemetry{
			appendLatency: r.Histogram("shield_journal_append_seconds",
				"Time to hand one encoded record to the journal sink.",
				obs.LatencyBuckets()),
			fsyncLatency: r.Histogram("shield_journal_fsync_seconds",
				"Time to fsync the journal after an append (WithFsync only).",
				obs.LatencyBuckets()),
			recordBytes: r.Histogram("shield_journal_record_bytes",
				"Encoded size of one journal record.",
				obs.SizeBuckets()),
			groupSize: r.Histogram("shield_journal_group_records",
				"Records coalesced into one group-commit flush (WithGroupCommit).",
				[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
			leaderWait: r.Histogram("shield_journal_group_leader_wait_seconds",
				"Time a group leader spends in the commit window plus waiting for the previous group's flush (WithGroupCommit).",
				obs.LatencyBuckets()),
			bytesTotal: r.Counter("shield_journal_appended_bytes_total",
				"Bytes appended to the journal."),
			appendErrors: r.Counter("shield_journal_append_errors_total",
				"Appends that failed and poisoned the writer."),
			stQueueWait:   t.Stage("group_commit.queue_wait"),
			stGroupAppend: t.Stage("group_commit.append"),
			stGroupFsync:  t.Stage("group_commit.fsync"),
			stAppend:      t.Stage("journal.append"),
			stFsync:       t.Stage("journal.fsync"),
		}
	}
}

// writerTelemetry holds a writer's pre-bound instruments; nil on
// uninstrumented writers. The st* cells are this writer's stages on the
// shared shield_stage_seconds family.
type writerTelemetry struct {
	appendLatency *obs.Histogram
	fsyncLatency  *obs.Histogram
	recordBytes   *obs.Histogram
	groupSize     *obs.Histogram
	leaderWait    *obs.Histogram
	bytesTotal    *obs.Counter
	appendErrors  *obs.Counter

	stQueueWait   *obs.Histogram // group_commit.queue_wait
	stGroupAppend *obs.Histogram // group_commit.append
	stGroupFsync  *obs.Histogram // group_commit.fsync
	stAppend      *obs.Histogram // journal.append (per-record mode)
	stFsync       *obs.Histogram // journal.fsync (per-record mode)
}

// Writer appends events to a log. Safe for concurrent use.
//
// Every record reaches the sink as a single newline-terminated Write.
// A sink failure poisons the writer: the failed record may be torn on
// disk, so all subsequent appends return the original error instead of
// writing after the tear (which would turn a recoverable torn tail into
// unrecoverable mid-log corruption).
type Writer struct {
	mu      sync.Mutex
	sink    io.Writer
	scratch bytes.Buffer
	enc     *json.Encoder
	fsync   bool
	tel     *writerTelemetry
	seq     int64
	started bool
	closed  bool
	err     error // sticky append failure

	// commit, when set (OnCommit), observes every durably committed
	// record in strict sequence order — the hook behind the replication
	// feed. It runs after the record's write (and fsync) succeeds and
	// before the append is acknowledged to its caller.
	commit func(Event)

	// Group commit (WithGroupCommit). cur is the forming group
	// concurrent appends pile onto (guarded by mu); flushMu serializes
	// group flushes so groups reach the sink in formation order — the
	// lock order is flushMu before mu. groups and maxGroup are
	// diagnostics (tests read them; telemetry exports the histogram).
	grouped     bool
	groupWindow time.Duration
	cur         *commitGroup
	flushMu     sync.Mutex
	groups      int64
	maxGroup    int
}

// commitGroup is one batch of records bound for a single sink Write
// (plus one fsync). Members append their encoded records to buf under
// the writer mutex; the member that created the group leads the flush.
// done closes once the group's fate is decided, and err is the shared
// outcome every member returns — the whole group succeeds or the whole
// group fails, never a silent prefix.
type commitGroup struct {
	buf  bytes.Buffer
	n    int
	done chan struct{}
	err  error
	// events retains the group's records, in sequence order, when a
	// commit hook is installed — flushGroup replays them to the hook
	// after the group reaches the sink.
	events []Event
}

// NewWriter wraps w. Call Genesis before any other append.
func NewWriter(w io.Writer, opts ...Option) *Writer {
	jw := &Writer{sink: w}
	jw.enc = json.NewEncoder(&jw.scratch)
	for _, o := range opts {
		o(jw)
	}
	return jw
}

// OnCommit installs fn as the writer's commit hook: it is invoked once
// per durably committed record, in strict sequence order, with the
// record exactly as written (Seq assigned). Per-record mode calls it
// after the write (and fsync) succeeds, before the append returns;
// group-commit mode calls it per member after the group's flush
// succeeds, before any member is woken. Failed appends never reach the
// hook. fn must not call back into the writer and should return
// quickly — it runs on the append path.
//
// Install the hook before traffic flows (records appended while no
// hook is set are not replayed to a later hook), and install at most
// one: this is the feed point for replication, not a general event
// bus.
func (w *Writer) OnCommit(fn func(Event)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.commit = fn
}

// LastSeq returns the sequence number of the last record the writer
// accepted (head included), 0 when nothing has been written. In
// group-commit mode the newest records may still be in flight to the
// sink; quiesce appends before treating LastSeq as a durable high-water
// mark.
func (w *Writer) LastSeq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Genesis writes the configuration header. Must be called exactly once,
// first.
func (w *Writer) Genesis(cfg market.Config) error {
	return w.head(Event{Op: OpGenesis, Config: &cfg})
}

// Snapshot writes a full-state header (a compacted log's first record).
// Must be called exactly once, first.
func (w *Writer) Snapshot(s market.Snapshot) error {
	return w.head(Event{Op: OpSnapshot, Snapshot: &s})
}

func (w *Writer) head(e Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.started {
		return ErrDoubleStart
	}
	w.started = true
	e.V = FormatVersion
	return w.append(context.Background(), e)
}

// Append journals one event (Seq is assigned by the writer).
func (w *Writer) Append(e Event) error {
	return w.AppendCtx(context.Background(), e)
}

// AppendCtx is Append with request context: when ctx carries a sampled
// obs trace, the record's sink write and fsync land as spans on it —
// journal.append and journal.fsync in per-record mode, or
// group_commit.queue_wait/append/fsync under WithGroupCommit (the
// flush spans land on the group leader's trace; a follower sees only
// its queue wait).
func (w *Writer) AppendCtx(ctx context.Context, e Event) error {
	if w.grouped {
		return w.appendGrouped(ctx, e)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !w.started {
		return ErrNoGenesis
	}
	if e.Op == OpGenesis || e.Op == OpSnapshot {
		return ErrDoubleStart
	}
	return w.append(ctx, e)
}

// appendGrouped enqueues one record onto the pending commit group and
// returns once the group's flush decides its fate. The sequence number
// advances at enqueue time: groups flush in formation order and a
// failed flush poisons the writer, so no later record can ever occupy
// a failed record's slot.
func (w *Writer) appendGrouped(ctx context.Context, e Event) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if !w.started {
		w.mu.Unlock()
		return ErrNoGenesis
	}
	if e.Op == OpGenesis || e.Op == OpSnapshot {
		w.mu.Unlock()
		return ErrDoubleStart
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	e.Seq = w.seq + 1
	w.scratch.Reset()
	if err := w.enc.Encode(e); err != nil {
		// Nothing was enqueued; the writer stays usable.
		w.mu.Unlock()
		return fmt.Errorf("journal: encoding event %d: %w", e.Seq, err)
	}
	w.seq = e.Seq
	if w.tel != nil {
		w.tel.recordBytes.Observe(float64(w.scratch.Len()))
	}
	g := w.cur
	leader := g == nil
	if leader {
		g = &commitGroup{done: make(chan struct{})}
		w.cur = g
	}
	g.buf.Write(w.scratch.Bytes())
	g.n++
	if w.commit != nil {
		g.events = append(g.events, e)
	}
	w.mu.Unlock()

	if !leader {
		// A follower's queue wait runs from enqueue to the group's fate;
		// it is the price of riding someone else's fsync.
		waitStart := time.Now()
		<-g.done
		wait := time.Since(waitStart)
		obs.TraceFrom(ctx).AddSpan("group_commit.queue_wait", waitStart, wait)
		if w.tel != nil {
			w.tel.stQueueWait.ObserveTrace(wait.Seconds(), obs.ExemplarID(ctx))
		}
		return g.err
	}
	// Leader: give followers the commit window to pile on, then flush.
	// The sleep happens before taking flushMu, so it overlaps the
	// previous group's sink write instead of adding to it. The leader's
	// queue wait — window plus flushMu acquisition — is measured inside
	// flushGroup, where the wait actually ends.
	waitStart := time.Now()
	if w.groupWindow > 0 {
		time.Sleep(w.groupWindow)
	}
	w.flushGroup(ctx, g, waitStart)
	return g.err
}

// flushGroup detaches g from the writer and commits it: one sink Write,
// one fsync (WithFsync), one shared outcome. flushMu serializes flushes
// in group-formation order; a sticky writer error fails the group
// without touching the sink. waitStart is when the leader began waiting
// (window start); the span and histograms charge everything up to the
// flushMu acquisition to group_commit.queue_wait.
func (w *Writer) flushGroup(ctx context.Context, g *commitGroup, waitStart time.Time) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	wait := time.Since(waitStart)
	obs.TraceFrom(ctx).AddSpan("group_commit.queue_wait", waitStart, wait)
	if w.tel != nil {
		w.tel.leaderWait.Observe(wait.Seconds())
		w.tel.stQueueWait.ObserveTrace(wait.Seconds(), obs.ExemplarID(ctx))
	}
	w.mu.Lock()
	if w.cur == g {
		w.cur = nil // no further members may join
	}
	if w.err != nil {
		// An earlier group tore the sink; writing after the tear would
		// turn a recoverable torn tail into mid-log corruption.
		g.err = w.err
		w.mu.Unlock()
		close(g.done)
		return
	}
	w.mu.Unlock()

	endAppend := obs.StartSpan(ctx, "group_commit.append")
	var start time.Time
	if w.tel != nil {
		start = time.Now()
	}
	n, err := w.sink.Write(g.buf.Bytes())
	if w.tel != nil {
		id := obs.ExemplarID(ctx)
		w.tel.appendLatency.ObserveSinceTrace(start, id)
		w.tel.stGroupAppend.ObserveSinceTrace(start, id)
	}
	endAppend.End()
	if err != nil {
		err = fmt.Errorf("journal: writing group of %d records: %w", g.n, err)
	} else if w.fsync {
		if s, ok := w.sink.(syncer); ok {
			endFsync := obs.StartSpan(ctx, "group_commit.fsync")
			if w.tel != nil {
				start = time.Now()
			}
			serr := s.Sync()
			if w.tel != nil {
				id := obs.ExemplarID(ctx)
				w.tel.fsyncLatency.ObserveSinceTrace(start, id)
				w.tel.stGroupFsync.ObserveSinceTrace(start, id)
			}
			endFsync.End()
			if serr != nil {
				err = fmt.Errorf("journal: syncing group of %d records: %w", g.n, serr)
			}
		}
	}

	w.mu.Lock()
	var commit func(Event)
	if err != nil {
		if w.tel != nil {
			w.tel.appendErrors.Inc()
		}
		w.err = err
	} else {
		w.groups++
		if g.n > w.maxGroup {
			w.maxGroup = g.n
		}
		if w.tel != nil {
			w.tel.bytesTotal.Add(uint64(n))
			w.tel.groupSize.Observe(float64(g.n))
		}
		commit = w.commit
	}
	w.mu.Unlock()
	if commit != nil {
		// Still under flushMu, so groups reach the hook in flush ==
		// formation == sequence order, and before any member is acked.
		for _, e := range g.events {
			commit(e)
		}
	}
	g.err = err
	close(g.done)
}

func (w *Writer) append(ctx context.Context, e Event) error {
	if w.err != nil {
		return w.err
	}
	e.Seq = w.seq + 1
	w.scratch.Reset()
	if err := w.enc.Encode(e); err != nil {
		// Nothing reached the sink; the writer stays usable.
		return fmt.Errorf("journal: encoding event %d: %w", e.Seq, err)
	}
	endAppend := obs.StartSpan(ctx, "journal.append")
	var start time.Time
	if w.tel != nil {
		start = time.Now()
	}
	n, err := w.sink.Write(w.scratch.Bytes())
	if w.tel != nil {
		id := obs.ExemplarID(ctx)
		w.tel.appendLatency.ObserveSinceTrace(start, id)
		w.tel.stAppend.ObserveSinceTrace(start, id)
	}
	endAppend.End()
	if err != nil {
		if w.tel != nil {
			w.tel.appendErrors.Inc()
		}
		w.err = fmt.Errorf("journal: writing event %d: %w", e.Seq, err)
		return w.err
	}
	if w.tel != nil {
		w.tel.bytesTotal.Add(uint64(n))
		w.tel.recordBytes.Observe(float64(n))
	}
	if w.fsync {
		if s, ok := w.sink.(syncer); ok {
			endFsync := obs.StartSpan(ctx, "journal.fsync")
			if w.tel != nil {
				start = time.Now()
			}
			serr := s.Sync()
			if w.tel != nil {
				id := obs.ExemplarID(ctx)
				w.tel.fsyncLatency.ObserveSinceTrace(start, id)
				w.tel.stFsync.ObserveSinceTrace(start, id)
			}
			endFsync.End()
			if serr != nil {
				if w.tel != nil {
					w.tel.appendErrors.Inc()
				}
				w.err = fmt.Errorf("journal: syncing event %d: %w", e.Seq, serr)
				return w.err
			}
		}
	}
	w.seq = e.Seq
	if w.commit != nil {
		// Under w.mu: per-record appends reach the hook in sequence
		// order, after durability, before the caller is acked.
		w.commit(e)
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
// ErrClosed. In group-commit mode Close first drains the pending group
// — its members were promised an answer and get a real one. Close does
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
	g := w.cur
	w.mu.Unlock()
	if g != nil {
		<-g.done // the group's leader is mid-window or mid-flush; let it finish
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
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

// Scan streams a log record by record, tolerating exactly one trailing
// torn record: a final line without its newline terminator is dropped
// (a crash killed the writer mid-record), and torn reports whether that
// happened. fn is invoked once per complete record, in order; a non-nil
// fn error aborts the scan and is returned verbatim. Scan returns the
// byte length of the durable prefix — the log up to and including the
// last complete record — which callers resuming appends must truncate
// the file to. Any malformed or out-of-sequence record before the tail
// is a hard error carrying the expected sequence number and byte
// offset, because crashes cannot produce mid-log damage: it is real
// corruption. The first record's sequence number must be firstSeq
// (records are contiguous from there); a whole-log scan passes 1, a
// segment scan passes the segment's base. Scan does not validate the
// header; Read and Bootstrap do.
//
// Scan is the O(1)-memory primitive under Recover, Restore, OpenFile
// and the segmented Store: none of them materialize the history as a
// slice, so recovery cost is bounded by the tail being replayed, not by
// what it allocates.
func Scan(r io.Reader, firstSeq int64, fn func(Event) error) (durable int64, torn bool, err error) {
	br := bufio.NewReader(r)
	seq := firstSeq - 1
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			if len(line) > 0 {
				// Trailing bytes without a newline: the torn tail.
				return durable, true, nil
			}
			return durable, false, nil
		}
		if rerr != nil {
			return 0, false, fmt.Errorf("journal: reading event %d at byte %d: %w", seq+1, durable, rerr)
		}
		var e Event
		if uerr := json.Unmarshal(line, &e); uerr != nil {
			return 0, false, fmt.Errorf("%w: event %d at byte %d: %v", ErrBadEvent, seq+1, durable, uerr)
		}
		seq++
		if e.Seq != seq {
			return 0, false, fmt.Errorf("%w: got %d, want %d at byte %d", ErrSeqGap, e.Seq, seq, durable)
		}
		if ferr := fn(e); ferr != nil {
			return 0, false, ferr
		}
		durable += int64(len(line))
	}
}

// Recover is the slice-returning wrapper over Scan kept for tests and
// small logs: it materializes every event in memory. Production
// recovery paths (OpenFile, Restore, the segmented Store) stream
// through Scan instead.
func Recover(r io.Reader) (events []Event, durable int64, torn bool, err error) {
	durable, torn, err = Scan(r, 1, func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	return events, durable, torn, nil
}

// Read parses a log, validating sequence continuity and the header: the
// first event must be a genesis (fresh log) or a snapshot (compacted
// log) carrying a known format version — 0 (pre-versioning logs, which
// omit the field) or FormatVersion; anything else fails with ErrVersion.
// It returns every event, header included. A single trailing torn
// record — the signature of a crash mid-append — is silently dropped;
// see Recover.
func Read(r io.Reader) ([]Event, error) {
	events, _, _, err := Recover(r)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, ErrNoGenesis
	}
	switch head := events[0]; {
	case head.Op == OpGenesis && head.Config != nil:
	case head.Op == OpSnapshot && head.Snapshot != nil:
	default:
		return nil, ErrNoGenesis
	}
	if v := events[0].V; v != 0 && v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads 0 and %d)", ErrVersion, v, FormatVersion)
	}
	return events, nil
}

// Bootstrap builds a market from a validated event slice: the head
// (genesis or snapshot) seeds the market and the tail replays onto it.
func Bootstrap(events []Event) (*market.Market, error) {
	if len(events) == 0 {
		return nil, ErrNoGenesis
	}
	m, err := marketFromHead(events[0])
	if err != nil {
		return nil, err
	}
	if err := Replay(m, events[1:]); err != nil {
		return nil, err
	}
	return m, nil
}

// stateFromHead builds the state machine a log head describes: a
// genesis head seeds a fresh state from its recorded config, a snapshot
// head restores full state. Heads carrying a format version this build
// does not know fail with ErrVersion; anything that is not a well-formed
// head fails with ErrNoGenesis.
func stateFromHead(e Event) (*command.State, error) {
	if v := e.V; v != 0 && v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads 0 and %d)", ErrVersion, v, FormatVersion)
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

// marketFromHead is stateFromHead wrapped in the concurrent shell, for
// the recovery paths whose result goes on to serve.
func marketFromHead(e Event) (*market.Market, error) {
	st, err := stateFromHead(e)
	if err != nil {
		return nil, err
	}
	return market.FromState(st), nil
}

// Replay applies events to m in order: each record upgrades to its
// command through CommandFromEvent and goes through Market.Apply — the
// same deterministic core the live market ran when the record was
// written. Every event must succeed: the journal only contains
// operations that succeeded when recorded, and engines are
// deterministic, so any failure means the log does not match the market
// configuration.
func Replay(m *market.Market, events []Event) error {
	for _, e := range events {
		if err := applyEvent(m, e); err != nil {
			return err
		}
	}
	return nil
}

// applier is what a body record replays onto: a market on the recovery
// paths (locks taken, read views republished), the bare command.State
// of a store's checkpoint shadow.
type applier interface {
	Apply(command.Command) ([]command.Event, error)
}

// applyEvent replays one body record onto to; see Replay.
func applyEvent(to applier, e Event) error {
	cmd, err := CommandFromEvent(e)
	if err == nil {
		_, err = to.Apply(cmd)
	}
	if err != nil {
		return fmt.Errorf("%w: event %d (%s): %v", ErrReplay, e.Seq, e.Op, err)
	}
	return nil
}

// restoreStream rebuilds a market from a log in one streaming pass: the
// head seeds the market and every subsequent record applies as it is
// scanned, so the whole-log []Event slice Recover would build never
// exists. It returns the market (nil when not even the head survived —
// a crash during the very first append), the sequence number of the
// last replayed record, the durable byte prefix, and whether a torn
// tail was dropped.
func restoreStream(r io.Reader) (m *market.Market, lastSeq, durable int64, torn bool, err error) {
	durable, torn, err = Scan(r, 1, func(e Event) error {
		if m == nil {
			var herr error
			m, herr = marketFromHead(e)
			if herr != nil {
				return herr
			}
		} else if aerr := applyEvent(m, e); aerr != nil {
			return aerr
		}
		lastSeq = e.Seq
		return nil
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return m, lastSeq, durable, torn, nil
}

// Restore reads a log and rebuilds the market it describes, streaming
// one record at a time.
func Restore(r io.Reader) (*market.Market, error) {
	m, _, _, _, err := restoreStream(r)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, ErrNoGenesis
	}
	return m, nil
}

// Compact reads a log from r and writes an equivalent single-snapshot
// log to w: the rebuilt market's full state becomes the new head, so
// restart cost no longer grows with history.
func Compact(r io.Reader, w io.Writer, opts ...Option) error {
	m, err := Restore(r)
	if err != nil {
		return err
	}
	nw := NewWriter(w, opts...)
	if err := nw.Snapshot(m.Snapshot()); err != nil {
		return err
	}
	return nw.Close()
}

// CompactFile compacts a journal file in place, atomically: the
// snapshot log is built in a temporary sibling file, synced, and
// renamed over the original (then the directory is synced). A crash or
// error at any point leaves either the old log or the new log intact —
// never a half-written hybrid.
func CompactFile(path string) error {
	return compactFile(path, nil)
}

// compactFile is CompactFile with a test hook: wrap, when non-nil,
// wraps the temporary file's writer so crash tests can inject faults at
// chosen byte offsets.
func compactFile(path string, wrap func(io.Writer) io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		f.Close()
		return err
	}
	var sink io.Writer = tmp
	if wrap != nil {
		sink = wrap(tmp)
	}
	// Compact's writer syncs the sink on Close, so a silently-lost write
	// surfaces here, before the rename can install a short log.
	if err := Compact(f, sink); err != nil {
		f.Close()
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	f.Close()
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
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

// Market wraps a market.Market, journaling every successful mutating
// operation. Reads pass through to the embedded market.
type Market struct {
	*market.Market
	w *Writer
	// sink, when the journal owns its file (OpenFile) or store
	// (OpenStore), is closed by Close after the final sync.
	sink io.Closer
	// store is set on store-backed markets (OpenStore): the segmented
	// sink that owns rotation, checkpoints and compaction.
	store *Store
}

// Store returns the segmented store backing this market, nil for flat
// single-file (OpenFile) and plain-sink (NewMarket) journals.
func (m *Market) Store() *Store { return m.store }

// NewMarket builds a market from cfg and a journal writing to sink,
// writing the genesis record immediately.
func NewMarket(cfg market.Config, sink io.Writer, opts ...Option) (*Market, error) {
	m, err := market.New(cfg)
	if err != nil {
		return nil, err
	}
	w := NewWriter(sink, opts...)
	if err := w.Genesis(cfg); err != nil {
		return nil, err
	}
	return &Market{Market: m, w: w}, nil
}

// OpenFile creates a fresh journaled market logging to path, or — when
// path already holds a journal — rebuilds the market from it and resumes
// appending. The log's genesis configuration wins over cfg on restore:
// mixing configurations would silently diverge the replay. A torn
// trailing record (crash mid-append) is truncated away before appends
// resume, so the file only ever grows from a complete record boundary.
// It returns the number of replayed events.
func OpenFile(cfg market.Config, path string, opts ...Option) (*Market, int, error) {
	if info, err := os.Stat(path); err == nil && info.Size() > 0 {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		m, lastSeq, durable, torn, err := restoreStream(f)
		f.Close()
		if err != nil {
			return nil, 0, err
		}
		if torn {
			if err := repairTornTail(path, durable); err != nil {
				return nil, 0, err
			}
		}
		if m != nil {
			sink, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, 0, err
			}
			jm := Resume(m, sink, lastSeq, opts...)
			jm.sink = sink
			return jm, int(lastSeq) - 1, nil
		}
		// The crash hit the very first record: nothing durable, start
		// a fresh log below.
	}
	sink, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	jm, err := NewMarket(cfg, sink, opts...)
	if err != nil {
		sink.Close()
		return nil, 0, err
	}
	jm.sink = sink
	return jm, 0, nil
}

// Resume wraps an already-restored market with a writer that continues
// an existing log: sink should append to the same file the market was
// restored from, and lastSeq is the sequence number of the log's final
// record (1 + the event count returned by Read, counting genesis).
func Resume(m *market.Market, sink io.Writer, lastSeq int64, opts ...Option) *Market {
	w := NewWriter(sink, opts...)
	w.started = true
	w.seq = lastSeq
	return &Market{Market: m, w: w}
}

// record encodes cmd as its journal event. Every command this file
// builds has a journal form, so a failure is a programming error.
func record(cmd command.Command) Event {
	e, err := EventFromCommand(cmd)
	if err != nil {
		panic(err)
	}
	return e
}

// Apply routes one command through the market and journals it; see
// ApplyCtx. It shadows the embedded market's Apply so command-level
// callers (the wire server, replay tooling) cannot accidentally mutate
// state without persisting it.
func (m *Market) Apply(cmd command.Command) ([]command.Event, error) {
	return m.ApplyCtx(context.Background(), cmd)
}

// ApplyCtx executes cmd against the embedded market and journals the
// applied state change. For every command but BidBatch that means
// journaling on success only. A BidBatch may partially apply — the
// core stops at the first failing bid — so the journal records exactly
// the applied prefix (as an OpBidBatch of the succeeded bids); the
// original command error, if any, is still returned. A journal failure
// takes precedence: the operation applied but did not persist, and the
// caller must know the log is behind the in-memory state.
func (m *Market) ApplyCtx(ctx context.Context, cmd command.Command) ([]command.Event, error) {
	evs, err := m.Market.ApplyCtx(ctx, cmd)
	switch cmd.(type) {
	case command.BidBatch:
		if len(evs) == 0 {
			return evs, err
		}
		bids := make([]command.SubmitBid, len(evs))
		for i, ev := range evs {
			bids[i] = command.SubmitBid{Buyer: ev.Buyer, Dataset: ev.Dataset, Amount: ev.Amount}
		}
		e := record(command.BidBatch{Bids: bids})
		e.Trace = obs.RequestIDFrom(ctx)
		if jerr := m.w.AppendCtx(ctx, e); jerr != nil {
			return evs, jerr
		}
		return evs, err
	case command.Settle:
		return evs, err // never applies; nothing to journal
	default:
		if err != nil {
			return evs, err
		}
		e := record(cmd)
		e.Trace = obs.RequestIDFrom(ctx)
		if jerr := m.w.AppendCtx(ctx, e); jerr != nil {
			return evs, jerr
		}
		return evs, nil
	}
}

// RegisterBuyer journals on success.
func (m *Market) RegisterBuyer(id market.BuyerID) error {
	if err := m.Market.RegisterBuyer(id); err != nil {
		return err
	}
	return m.w.Append(record(command.RegisterBuyer{Buyer: id}))
}

// RegisterSeller journals on success.
func (m *Market) RegisterSeller(id market.SellerID) error {
	if err := m.Market.RegisterSeller(id); err != nil {
		return err
	}
	return m.w.Append(record(command.RegisterSeller{Seller: id}))
}

// UploadDataset journals on success.
func (m *Market) UploadDataset(seller market.SellerID, id market.DatasetID) error {
	if err := m.Market.UploadDataset(seller, id); err != nil {
		return err
	}
	return m.w.Append(record(command.UploadDataset{Seller: seller, Dataset: id}))
}

// ComposeDataset journals on success.
func (m *Market) ComposeDataset(id market.DatasetID, constituents ...market.DatasetID) error {
	if err := m.Market.ComposeDataset(id, constituents...); err != nil {
		return err
	}
	return m.w.Append(record(command.ComposeDataset{Dataset: id, Constituents: constituents}))
}

// SubmitBid journals on success (including losing bids: they move
// engine and wait state).
func (m *Market) SubmitBid(buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error) {
	return m.SubmitBidCtx(context.Background(), buyer, dataset, amount)
}

// SubmitBidCtx is SubmitBid with request context: the obs trace rides
// through the market's locking and pricing spans into the journal's
// append and fsync spans, and the journaled event records the request
// ID so operators can join a log record to its trace.
func (m *Market) SubmitBidCtx(ctx context.Context, buyer market.BuyerID, dataset market.DatasetID, amount float64) (market.Decision, error) {
	d, err := m.Market.SubmitBidCtx(ctx, buyer, dataset, amount)
	if err != nil {
		return d, err
	}
	e := record(command.SubmitBid{Buyer: buyer, Dataset: dataset, Amount: amount})
	e.Trace = obs.RequestIDFrom(ctx)
	if err := m.w.AppendCtx(ctx, e); err != nil {
		return d, err
	}
	return d, nil
}

// SubmitBids places a batch of bids and journals the successful ones as
// a single OpBidBatch event. Unlike the unjournaled market's SubmitBids,
// entries execute sequentially in request order: the journal is a total
// order of operations, and replay must reproduce the exact engine state,
// so the batch's application order has to be the recorded order.
func (m *Market) SubmitBids(reqs []market.BidRequest) []market.BidResult {
	return m.SubmitBidsCtx(context.Background(), reqs)
}

// SubmitBidsCtx is SubmitBids with request context; see SubmitBidCtx.
func (m *Market) SubmitBidsCtx(ctx context.Context, reqs []market.BidRequest) []market.BidResult {
	out := make([]market.BidResult, len(reqs))
	bids := make([]command.SubmitBid, 0, len(reqs))
	for i, r := range reqs {
		out[i].Decision, out[i].Err = m.Market.SubmitBidCtx(ctx, r.Buyer, r.Dataset, r.Amount)
		if out[i].Err == nil {
			bids = append(bids, command.SubmitBid{Buyer: r.Buyer, Dataset: r.Dataset, Amount: r.Amount})
		}
	}
	if len(bids) == 0 {
		return out
	}
	e := record(command.BidBatch{Bids: bids})
	e.Trace = obs.RequestIDFrom(ctx)
	if err := m.w.AppendCtx(ctx, e); err != nil {
		// The bids applied but did not persist; surface the journal
		// failure on every applied entry so callers know the log is
		// behind the in-memory state.
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// WithdrawDataset journals on success.
func (m *Market) WithdrawDataset(seller market.SellerID, id market.DatasetID) error {
	if err := m.Market.WithdrawDataset(seller, id); err != nil {
		return err
	}
	return m.w.Append(record(command.WithdrawDataset{Seller: seller, Dataset: id}))
}

// Tick journals the clock advance.
func (m *Market) Tick() (int, error) {
	p := m.Market.Tick()
	return p, m.w.Append(record(command.Tick{}))
}

// OnCommit installs fn as the journal's commit hook; see Writer.OnCommit.
// It is the attachment point for the replication feed: install it after
// building the market but before serving traffic. On a store-backed
// market the store owns the Writer's hook (it drives checkpoints), so
// fn chains after the store's bookkeeping — same ordering guarantees.
func (m *Market) OnCommit(fn func(Event)) {
	if m.store != nil {
		m.store.OnCommit(fn)
		return
	}
	m.w.OnCommit(fn)
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

// Close syncs the journal and, when the journal owns its file, closes
// it. After Close every mutating operation fails with ErrClosed.
func (m *Market) Close() error {
	err := m.w.Close()
	if m.sink != nil {
		if cerr := m.sink.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
