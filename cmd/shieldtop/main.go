// Command shieldtop is a live terminal dashboard for a running shield
// server (marketd or the shieldload rig): it polls GET /metrics and
// GET /debug/traces on an interval and renders, per refresh frame,
//
//   - per-op-class request rates (from count deltas between polls) and
//     p50/p99 latency estimates for both transports,
//   - the durable write path's stage breakdown (wire.read, decode,
//     group_commit.queue_wait/append/fsync, apply, publish, ack.flush)
//     with each stage's tail-bucket exemplar — the request ID an
//     operator can paste into /debug/traces?id= to see that exact op's
//     full breakdown,
//   - group-commit health (mean group size, leader wait p99, fsync
//     p99),
//   - process self-metrics (goroutines, heap, GC, open connections),
//   - the most recent sampled traces.
//
// Usage:
//
//	shieldtop [-addr http://localhost:8080] [-token secret]
//	          [-interval 2s] [-n 0] [-plain]
//
// -token sends the operator bearer token (required when the server was
// started with -auth or -operator-token). -n bounds the number of
// refresh frames (0 = run until interrupted). -plain disables the ANSI
// clear between frames, so output appends — useful for logs and pipes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run polls and renders n frames (0 = forever). Returns 0 when every
// poll succeeded, 1 otherwise.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("shieldtop", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr     = fs.String("addr", "http://localhost:8080", "server base URL (serves /metrics and /debug/traces)")
		token    = fs.String("token", "", "operator bearer token")
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
		frames   = fs.Int("n", 0, "number of refresh frames to render (0 = until interrupted)")
		plain    = fs.Bool("plain", false, "append frames instead of clearing the screen")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	a := &app{
		base:   strings.TrimSuffix(*addr, "/"),
		token:  *token,
		client: &http.Client{Timeout: 10 * time.Second},
	}

	var prev *snapshot
	failed := false
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := a.scrape()
		if err != nil {
			fmt.Fprintf(errw, "shieldtop: %v\n", err)
			failed = true
			continue
		}
		traces, dropped, trErr := a.traces()
		if !*plain {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		render(out, a.base, prev, cur, *interval)
		renderTraces(out, traces, dropped, trErr)
		prev = cur
	}
	if failed {
		return 1
	}
	return 0
}

// app holds the polling target.
type app struct {
	base   string
	token  string
	client *http.Client
}

func (a *app) get(path string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, a.base+path, nil)
	if err != nil {
		return nil, err
	}
	if a.token != "" {
		req.Header.Set("Authorization", "Bearer "+a.token)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

// scrape fetches and parses one /metrics exposition.
func (a *app) scrape() (*snapshot, error) {
	resp, err := a.get("/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(raw), time.Now()), nil
}

// traces fetches the recent sampled traces, best-effort: a server run
// without tracing still gets the metrics panels.
func (a *app) traces() ([]obs.TraceSnapshot, uint64, error) {
	resp, err := a.get("/debug/traces")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Dropped uint64              `json:"dropped"`
		Traces  []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, err
	}
	return out.Traces, out.Dropped, nil
}

// stageOrder is the durable bid path in execution order; stages the
// server never observed are skipped, unknown extra stages are appended
// alphabetically.
var stageOrder = []string{
	"http.parse", "wire.read", "decode",
	"group_commit.queue_wait", "apply",
	"group_commit.append", "group_commit.fsync",
	"publish", "ack.flush",
}

// render writes one dashboard frame.
func render(w io.Writer, base string, prev, cur *snapshot, interval time.Duration) {
	fmt.Fprintf(w, "shieldtop — %s — %s\n\n", base, cur.at.Format("15:04:05"))

	renderClasses(w, prev, cur, interval)
	renderStages(w, cur)
	renderGroupCommit(w, cur)
	renderRuntime(w, cur)
}

// classRow is one op class in the rate table, merged across statuses.
type classRow struct {
	name   string
	all    hist
	errors float64
}

// classRows merges a request-latency family's per-status series into
// per-class rows. classOf maps a series' labels to the row name and
// errOf says whether the series counts as errors.
func classRows(s *snapshot, family string, classOf func(map[string]string) string, errOf func(map[string]string) bool) map[string]*classRow {
	rows := map[string]*classRow{}
	for _, h := range s.histograms(family) {
		name := classOf(h.labels)
		row := rows[name]
		if row == nil {
			row = &classRow{name: name}
			rows[name] = row
		}
		row.all.merge(h)
		if errOf(h.labels) {
			row.errors += h.count
		}
	}
	return rows
}

func allClassRows(s *snapshot) map[string]*classRow {
	rows := classRows(s, "shield_http_request_seconds",
		func(l map[string]string) string { return l["route"] },
		func(l map[string]string) bool { return l["status"] >= "400" })
	// Business rejections — Time-Shield waits, per-period bid limits —
	// are the market working as designed, not errors (same bucketing as
	// the load rig's gate).
	rejection := map[string]bool{"ok": true, "blocked_until": true, "bid_too_soon": true, "already_acquired": true}
	for name, row := range classRows(s, "shield_wire_request_seconds",
		func(l map[string]string) string { return "wire." + l["op"] },
		func(l map[string]string) bool { return !rejection[l["status"]] }) {
		rows[name] = row
	}
	return rows
}

func renderClasses(w io.Writer, prev, cur *snapshot, interval time.Duration) {
	rows := allClassRows(cur)
	if len(rows) == 0 {
		fmt.Fprintf(w, "no request histograms yet (no traffic, or wrong -addr?)\n\n")
		return
	}
	var prevRows map[string]*classRow
	if prev != nil {
		prevRows = allClassRows(prev)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %9s %10s %10s %10s %7s\n", "op class", "rate", "p50", "p99", "total", "errors")
	for _, n := range names {
		row := rows[n]
		rate := "-"
		if pr, ok := prevRows[n]; ok && interval > 0 {
			rate = fmt.Sprintf("%.0f/s", (row.all.count-pr.all.count)/interval.Seconds())
		}
		fmt.Fprintf(w, "%-28s %9s %10s %10s %10.0f %7.0f\n",
			n, rate, fmtSec(row.all.quantile(0.50)), fmtSec(row.all.quantile(0.99)),
			row.all.count, row.errors)
	}
	fmt.Fprintln(w)
}

func renderStages(w io.Writer, cur *snapshot) {
	series := cur.hists["shield_stage_seconds"]
	if len(series) == 0 {
		return
	}
	byStage := map[string]*hist{}
	var extra []string
	for _, h := range series {
		byStage[h.labels["stage"]] = h
	}
	known := map[string]bool{}
	for _, s := range stageOrder {
		known[s] = true
	}
	for s := range byStage {
		if !known[s] {
			extra = append(extra, s)
		}
	}
	sort.Strings(extra)
	fmt.Fprintf(w, "%-28s %10s %10s %10s   %s\n", "write-path stage", "count", "p50", "p99", "tail exemplar")
	for _, s := range append(append([]string{}, stageOrder...), extra...) {
		h, ok := byStage[s]
		if !ok || h.count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-28s %10.0f %10s %10s   %s\n",
			s, h.count, fmtSec(h.quantile(0.50)), fmtSec(h.quantile(0.99)), h.tailExemplar())
	}
	fmt.Fprintln(w)
}

func renderGroupCommit(w io.Writer, cur *snapshot) {
	var parts []string
	if gs := cur.histograms("shield_journal_group_records"); len(gs) == 1 && gs[0].count > 0 {
		parts = append(parts, fmt.Sprintf("mean group %.1f records over %.0f flushes",
			gs[0].sum/gs[0].count, gs[0].count))
	}
	if lw := cur.histograms("shield_journal_group_leader_wait_seconds"); len(lw) == 1 && lw[0].count > 0 {
		parts = append(parts, "leader wait p99 "+fmtSec(lw[0].quantile(0.99)))
	}
	if fs := cur.histograms("shield_journal_fsync_seconds"); len(fs) == 1 && fs[0].count > 0 {
		parts = append(parts, "fsync p99 "+fmtSec(fs[0].quantile(0.99)))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "group commit: %s\n", strings.Join(parts, ", "))
	}
}

func renderRuntime(w io.Writer, cur *snapshot) {
	var parts []string
	if v, ok := cur.scalar("shield_runtime_goroutines"); ok {
		parts = append(parts, fmt.Sprintf("%.0f goroutines", v))
	}
	if v, ok := cur.scalar("shield_runtime_heap_bytes"); ok {
		parts = append(parts, fmt.Sprintf("heap %.1f MiB", v/(1<<20)))
	}
	if v, ok := cur.scalar("shield_runtime_gc_pause_seconds_total"); ok {
		cycles, _ := cur.scalar("shield_runtime_gc_cycles_total")
		parts = append(parts, fmt.Sprintf("GC pause %s over %.0f cycles",
			fmtSec(v), cycles))
	}
	conns := []string{}
	if v, ok := cur.scalar("shield_http_connections"); ok {
		conns = append(conns, fmt.Sprintf("http=%.0f", v))
	}
	if v, ok := cur.scalar("shield_wire_connections"); ok {
		conns = append(conns, fmt.Sprintf("wire=%.0f", v))
	}
	if len(conns) > 0 {
		parts = append(parts, "conns "+strings.Join(conns, " "))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "runtime: %s\n", strings.Join(parts, ", "))
	}
}

// renderTraces shows the most recent sampled traces, newest first.
func renderTraces(w io.Writer, traces []obs.TraceSnapshot, dropped uint64, err error) {
	if err != nil {
		fmt.Fprintf(w, "\ntraces unavailable: %v\n", err)
		return
	}
	if len(traces) == 0 {
		return
	}
	const show = 8
	fmt.Fprintf(w, "\nrecent traces (%d in ring, %d evicted):\n", len(traces), dropped)
	for i, ts := range traces {
		if i == show {
			fmt.Fprintf(w, "  ... %d more\n", len(traces)-show)
			break
		}
		fmt.Fprintf(w, "  %-16s %-24s %10s  %s\n",
			ts.ID, ts.Name, time.Duration(ts.DurationUS)*time.Microsecond, ts.StageSummary())
	}
}

// fmtSec renders a seconds value as a rounded duration.
func fmtSec(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
