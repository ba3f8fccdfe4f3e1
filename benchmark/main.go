// Command benchmark is the repository's benchmark: four seeded
// workloads, five end-to-end metrics that are the same on every one,
// and — in a traced run — a layer ladder and probes that say where the
// time went. BENCHMARK.json at the repository root declares it;
// README.md in this directory explains every choice.
//
//	go run ./benchmark -workload wire_bid_durable -seed 1 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]func(Config) (*Report, error){
	// The operator's write path: durable bids over the wire protocol.
	"wire_bid_durable": func(c Config) (*Report, error) {
		return runServe(c, serveSpec{transport: "wire", opsPerSecond: 12_500})
	},
	// The operator's read path: nine reads to one bid over keep-alive HTTP.
	"http_read_mix": func(c Config) (*Report, error) {
		return runServe(c, serveSpec{transport: "http", opsPerSecond: 18_750, readShare: 0.9})
	},
	"store_recover": runRecover,
	"paper_sim":     runSim,
}

// Config selects and sizes one run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds sizes the measured work: every workload has a fixed
	// nominal rate, and Seconds × rate is the op count it runs. Work,
	// not time, is what a run fixes — two runs with the same Seconds do
	// exactly the same ops however fast the host is that minute.
	Seconds float64
	// Trace adds client-side spans, the layer ladder and the probes,
	// and fills Report.PerLayer.
	Trace bool
	// WorkDir is where the run may write: a traced run leaves its span
	// file there, and the journals live in a subdirectory that Run
	// removes before it returns.
	WorkDir string

	spanFile string // set by Run
}

// Run executes one workload and returns its report. It is the whole
// benchmark behind the command line; the tests call it directly.
func Run(cfg Config) (*Report, error) {
	run, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if !(cfg.Seconds > 0) {
		return nil, fmt.Errorf("seconds must be positive, got %v", cfg.Seconds)
	}
	cfg.spanFile = filepath.Join(cfg.WorkDir, "spans-"+cfg.Workload+".json")
	cfg.WorkDir = filepath.Join(cfg.WorkDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.WorkDir)
	rep, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	rep.Workload, rep.Seed = cfg.Workload, cfg.Seed
	rep.Host = hostStamp(cfg.WorkDir)
	return rep, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: wire_bid_durable, http_read_mix, store_recover or paper_sim")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 12, "nominal length of the measured phase; sets the op counts")
	trace := flag.Int("trace", 0, "1 adds client spans, the layer ladder and the probes, and prints the per-layer metrics")
	selfcheck := flag.Int("selfcheck", 0, "run the workload as two interleaved sets of this many runs and compare them against the bounds in BENCHMARK.json")
	flag.Parse()

	if *selfcheck > 0 {
		if err := selfCheck(os.Stdout, *workload, *seed, *seconds, *selfcheck); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	// Everything the run writes goes under the directory it was started in.
	rep, err := Run(Config{Workload: *workload, Seed: *seed, Seconds: float64(*seconds), Trace: *trace != 0, WorkDir: ".bench_work"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := printReport(os.Stdout, rep, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable block — host, every metric by
// name with its unit, the per-round rates, the checks — and then the
// one-line JSON result: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printReport(w io.Writer, rep *Report, seconds int) error {
	h := rep.Host
	fmt.Fprintf(w, "host: cores=%d gomaxprocs=%d kernel=%s go=%s journal_fs=%s fsync=%s\n",
		h.Cores, h.GOMAXPROCS, h.Kernel, h.GoVersion, h.JournalFS, h.Fsync)
	if h.JournalFS != "tmpfs" {
		fmt.Fprintf(w, "warning: journal directories are on %s, not tmpfs: writes reach a real filesystem's page cache (fsync is %s in the workloads; the durable probe's numbers are this disk's)\n", h.JournalFS, h.Fsync)
	}
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d\n", rep.Workload, rep.Seed, seconds)
	reported := rep.EndToEnd
	fmt.Fprintln(w, "end-to-end:")
	printMetrics(w, rep.EndToEnd)
	if rep.PerLayer != nil {
		fmt.Fprintln(w, "per-layer:")
		printMetrics(w, rep.PerLayer)
		fmt.Fprintf(w, "spans: %s\n", rep.SpanFile)
		reported = rep.PerLayer
	}
	fmt.Fprintf(w, "rounds ops/s: %s\n", formatRates(rep.RoundRates))
	if rep.WallRates != nil {
		fmt.Fprintf(w, "rounds wall-clock ops/s: %s\n", formatRates(rep.WallRates))
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d ops_rejected=%d\n", rep.Attempted, rep.Failed, rep.Rejected)
	for _, c := range rep.Checks {
		fmt.Fprintln(w, "check", c)
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, m := range reported {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func formatRates(rates []float64) string {
	s := make([]string, len(rates))
	for i, r := range rates {
		s[i] = fmt.Sprintf("%.4g", r)
	}
	return strings.Join(s, " ")
}

func printMetrics(w io.Writer, ms []Metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}
