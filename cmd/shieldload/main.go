// Command shieldload is the cluster-in-process load rig: it boots
// marketd's own server (internal/node; HTTP and wire transports over one
// journaled market with full telemetry) inside this process, seeds a
// catalog, and drives thousands of concurrent persona-driven client
// connections at an open-loop target rate.
// Latency is measured from each operation's scheduled send time
// (coordinated omission cannot hide queueing delay), cross-checked
// against the server's own latency histograms, and the run is gated on
// a declarative SLO plus the market's whole-system invariants: the books
// balance, store recovery rebuilds the live market, and every follower
// converges on it. A violated gate exits
// nonzero naming the violation, so `make slo-smoke` fails CI on a
// latency or correctness regression.
//
// Usage:
//
//	shieldload [-transport both] [-clients 1024] [-rate 4000] [-ops 16000]
//	           [-tick-every 400] [-seed 2022] [-datasets 16]
//	           [-fsync] [-trace-sample 1]
//	           [-compact-every 2000] [-segment-records 4096]
//	           [-followers 2] [-replica-fraction 0.1] [-replica-kill]
//	           [-slo 'bid.p99<250ms,error_rate<0.1%,replica.lag<2s']
//	           [-inject 'bid=2.5s'] [-json BENCH_7.json] [-q]
//
// -slo is a comma-separated list of clauses over the measured report:
// per-class latency bounds (bid.p99<5ms, query.p999<20ms, bid.max<1s),
// error-rate ceilings (error_rate<0.1%, bid.error_rate<0.5%), a
// throughput floor (throughput>=3000), and server-side stage bounds
// (bid.fsync.p99<2ms, bid.queue_wait.p99<5ms) read from the server's
// own shield_stage_seconds histograms — so a gate can distinguish "the
// disk got slow" from "the market got slow". Business rejections —
// Time-Shield waits, per-period bid limits — are the market working as
// designed and never count toward error rates.
//
// -inject adds an artificial latency to every recorded sample of an op
// class ('bid=2.5s'). It exists so the gate can be proven to fail: the
// mutation-canary test injects a regression and asserts shieldload
// exits nonzero naming the violated clause.
//
// The rig runs on a journal store in a temporary directory (the marketd
// -journal-dir configuration): segment files rotated every
// -segment-records records, snapshot checkpoints every -compact-every
// committed records, and background compaction deleting covered
// segments — all while bids are measured against the SLO, so a
// checkpoint pause that stalls the commit path shows up as a bid.p99
// violation. The post-run invariant check recovers the store from disk
// (checkpoint + tail segments) and pins it byte-identical to the live
// state.
//
// -followers boots N read replicas beside the leader, each streaming
// the committed command log over the wire protocol and serving reads on
// its own HTTP listener; -replica-fraction routes that share of ops to
// them as the "replica" class, and -replica-kill drops one follower's
// replication connection at the schedule's midpoint to prove catch-up
// under load. A replica.lag<2s clause bounds the worst staleness any
// follower showed (sampled at 25ms), and the post-run invariants pin
// every follower snapshot byte-identical to the leader's.
//
// -addr and -wire-addr drive a running marketd instead of booting one:
// the rig seeds it through a client, as it seeds its own leader (an
// account a second run finds registered is kept), and drives the
// transports -transport names, each of which needs its address. The
// flags that configure the in-process server exit 2. With no server in
// this process the invariants are not checked and a clause on a server
// stage is violated as "not measured". The target must run without
// -auth: rig clients sign no bids.
//
//	shieldload -addr 127.0.0.1:8080 -wire-addr 127.0.0.1:9090 -slo 'error_rate<0.1%'
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/loadrig"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artifact is the -json schema (BENCH_7.json is one).
type artifact struct {
	GeneratedAt string                `json:"generated_at"`
	GoVersion   string                `json:"go_version"`
	Transport   string                `json:"transport"`
	Clients     int                   `json:"clients"`
	TargetRate  float64               `json:"target_rate"`
	Ops         int                   `json:"ops"`
	Seed        uint64                `json:"seed"`
	Throughput  float64               `json:"throughput_ops_per_sec"`
	DurationSec float64               `json:"duration_sec"`
	Errors      int                   `json:"errors"`
	Classes     map[string]classStats `json:"classes"`
	ServerP99   map[string]float64    `json:"server_quantiles_sec"`
	// ServerStages is the server-side bid-path decomposition (queue
	// wait vs fsync vs apply), keyed by stage class.
	ServerStages map[string]loadrig.StageStats `json:"server_stages,omitempty"`
	// ReplicaMaxLagSec is the worst replication staleness any follower
	// showed during the run (absent without -followers).
	ReplicaMaxLagSec float64  `json:"replica_max_lag_sec,omitempty"`
	Invariants       string   `json:"invariants"`
	SLO              string   `json:"slo,omitempty"`
	Violations       []string `json:"violations,omitempty"`
}

// classStats is one op class in the artifact, latencies in seconds.
type classStats struct {
	Count   int     `json:"count"`
	Errors  int     `json:"errors"`
	Rejects int     `json:"rejects"`
	Won     int     `json:"won,omitempty"`
	Lost    int     `json:"lost,omitempty"`
	P50     float64 `json:"p50_sec"`
	P99     float64 `json:"p99_sec"`
	P999    float64 `json:"p999_sec"`
	Max     float64 `json:"max_sec"`
}

// run is main minus the process exit, for tests: 0 = gate passed,
// 1 = SLO or invariant violation, 2 = usage or setup failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shieldload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		transport    = fs.String("transport", loadrig.TransportBoth, "http, wire, or both (clients split evenly)")
		clients      = fs.Int("clients", 1024, "concurrent client connections")
		rate         = fs.Float64("rate", 4000, "open-loop offered load, ops/second across all clients")
		ops          = fs.Int("ops", 16000, "total operations to schedule")
		tickEvery    = fs.Int("tick-every", 400, "advance the market period every N ops (0 = never)")
		seed         = fs.Uint64("seed", 2022, "scenario seed (workload replays bit-identically)")
		datasets     = fs.Int("datasets", 16, "catalog size to seed")
		fsync        = fs.Bool("fsync", false, "fsync every journal flush (durable production configuration)")
		traceSample  = fs.Int("trace-sample", 0, "trace every Nth request (0 = tracing off; 1 = every request)")
		sloSpec      = fs.String("slo", "", "SLO gate, e.g. 'bid.p99<250ms,error_rate<0.1%' (empty = report only)")
		inject       = fs.String("inject", "", "artificial latency per op class, e.g. 'bid=2.5s' (gate self-test)")
		jsonOut      = fs.String("json", "", "also write the report as a JSON artifact")
		quiet        = fs.Bool("q", false, "suppress the report table (violations still print)")
		compactEvery = fs.Int64("compact-every", 0, "snapshot-checkpoint and compact the journal store every N committed records (default 10000; negative disables)")
		segRecords   = fs.Int64("segment-records", 0, "records per journal segment before rotation (default 65536)")
		followers    = fs.Int("followers", 0, "read replicas to boot beside the leader")
		replicaFrac  = fs.Float64("replica-fraction", 0, "fraction of ops served by replicas (carved from the read share; needs -followers)")
		replicaKill  = fs.Bool("replica-kill", false, "drop follower 0's replication connection at the schedule midpoint (needs -followers)")
		addr         = fs.String("addr", "", "drive the running server whose HTTP API listens here (host:port or http://host:port) instead of booting one")
		wireAddr     = fs.String("wire-addr", "", "drive the running server whose wire protocol listens here (host:port) instead of booting one")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	remote := *addr != "" || *wireAddr != ""
	slo, sloErr := loadrig.ParseSLO(*sloSpec)
	injected, injectErr := parseInject(*inject)
	err := errors.Join(remoteFlags(fs, remote, *transport, *addr, *wireAddr), sloErr, injectErr)
	if err != nil {
		fmt.Fprintf(stderr, "shieldload: %v\n", err)
		return 2
	}

	rc := loadrig.RigConfig{
		Datasets:    *datasets,
		Buyers:      *clients,
		Seed:        *seed,
		Fsync:       *fsync,
		TraceSample: *traceSample,
		Followers:   *followers,
		StoreConfig: journal.StoreConfig{
			SegmentRecords:  *segRecords,
			CheckpointEvery: *compactEvery,
		},
	}
	var rig *loadrig.Rig
	if remote {
		rig, err = loadrig.DialRig(*addr, *wireAddr, rc)
	} else {
		rig, err = loadrig.StartRig(rc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "shieldload: %v\n", err)
		return 2
	}
	defer rig.Close()

	rep, err := loadrig.Run(rig, loadrig.Scenario{
		Transport:       *transport,
		Clients:         *clients,
		Rate:            *rate,
		Ops:             *ops,
		TickEvery:       *tickEvery,
		Seed:            *seed,
		InjectLatency:   injected,
		ReplicaFraction: *replicaFrac,
		KillFollower:    *replicaKill,
	})
	if err != nil {
		fmt.Fprintf(stderr, "shieldload: %v\n", err)
		return 2
	}

	code := 0
	inv, invErr := rig.CheckInvariants()
	if invErr != nil {
		fmt.Fprintf(stderr, "shieldload: INVARIANT VIOLATED: %v\n", invErr)
		inv = invErr.Error()
		code = 1
	}
	rep.Invariants = inv

	violations := slo.Evaluate(rep)
	if !*quiet {
		fmt.Fprint(stdout, rep)
		if invErr == nil {
			fmt.Fprintf(stdout, "invariants: %s\n", inv)
		}
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "shieldload: SLO %s\n", v)
		code = 1
	}
	if code == 0 && *sloSpec != "" {
		fmt.Fprintf(stdout, "SLO satisfied: %s\n", *sloSpec)
	}

	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, rep, *transport, *clients, *rate, *ops, *seed, *sloSpec, violations); err != nil {
			fmt.Fprintf(stderr, "shieldload: %v\n", err)
			if code == 0 {
				code = 2
			}
		} else {
			fmt.Fprintf(stdout, "shieldload: wrote %s\n", *jsonOut)
		}
	}
	return code
}

// serverFlags configure the in-process server, so a remote run refuses
// them.
var serverFlags = []string{"fsync", "trace-sample", "compact-every", "segment-records", "followers", "replica-fraction", "replica-kill"}

// remoteFlags refuses a remote run that sets a server flag or drives a
// transport whose address is missing.
func remoteFlags(fs *flag.FlagSet, remote bool, transport, addr, wireAddr string) (err error) {
	switch {
	case !remote:
	case transport != loadrig.TransportWire && addr == "":
		err = fmt.Errorf("-transport %s needs -addr", transport)
	case transport != loadrig.TransportHTTP && wireAddr == "":
		err = fmt.Errorf("-transport %s needs -wire-addr", transport)
	default:
		fs.Visit(func(f *flag.Flag) {
			if err == nil && slices.Contains(serverFlags, f.Name) {
				err = fmt.Errorf("-%s configures the in-process server; drop it with -addr or -wire-addr", f.Name)
			}
		})
	}
	return err
}

// parseInject parses 'class=dur[,class=dur]' fault-injection specs.
func parseInject(spec string) (map[string]time.Duration, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := map[string]time.Duration{}
	for _, term := range strings.Split(spec, ",") {
		class, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("bad -inject term %q (want class=duration)", term)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad -inject duration in %q", term)
		}
		out[class] = d
	}
	return out, nil
}

func writeArtifact(path string, rep *loadrig.Report, transport string, clients int, rate float64, ops int, seed uint64, slo string, violations []loadrig.Violation) error {
	art := artifact{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		Transport:        transport,
		Clients:          clients,
		TargetRate:       rate,
		Ops:              ops,
		Seed:             seed,
		Throughput:       rep.Throughput,
		DurationSec:      rep.Duration.Seconds(),
		Errors:           rep.Errors,
		Classes:          map[string]classStats{},
		ServerP99:        rep.ServerQuantiles,
		ServerStages:     rep.ServerStages,
		ReplicaMaxLagSec: rep.ReplicaMaxLag,
		Invariants:       rep.Invariants,
		SLO:              slo,
	}
	for name, st := range rep.Classes {
		art.Classes[name] = classStats{
			Count: st.Count, Errors: st.Errors, Rejects: st.Rejects,
			Won: st.Won, Lost: st.Lost,
			P50: st.P50.Seconds(), P99: st.P99.Seconds(),
			P999: st.P999.Seconds(), Max: st.Max.Seconds(),
		}
	}
	for _, v := range violations {
		art.Violations = append(art.Violations, v.String())
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
