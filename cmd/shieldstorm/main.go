// Command shieldstorm runs the deterministic model-based torture
// harness (internal/torture) from the command line: a seeded workload
// replays against a sequential reference model and real store-backed
// journaled markets (direct, instrumented, over the wire), checking
// decision equivalence, canonical snapshot equality, record-stream
// identity, store recovery and ledger invariants. Failures print a
// one-line reproduction command and exit non-zero.
//
// With -hot it runs the concurrent storm instead: eight goroutines
// on one store-backed journaled market, four bids in five on the same
// dataset, ticks, registrations and batches interleaved, a replication
// follower attached; at every quiescent checkpoint the journal replayed
// from genesis, the store recovered from its newest checkpoint, and the
// follower's snapshot must each equal the leader byte for byte, and the
// books must balance. In its second round a second follower joins from
// a fresh checkpoint once the feed's ring has moved past it, so its
// catch-up reads the leader's segments while the writers commit; every
// stream it is sent must be gapless and it, too, must equal the leader.
//
// With -bitrot it runs the bit-rot mode: a seeded store is built, single
// bits are flipped at seeded offsets of its segments and checkpoints, and
// recovery, a leader's open, a follower's cold restart and the offline
// verifier must each refuse the damaged copy with the checksum error
// that names file, seq and offset — or, where a reader never touches the
// damaged bytes, rebuild the builder's market byte for byte.
//
// Every twin is a store directory. -segment-records, -checkpoint-every
// and -retain-segments tune the direct twin's, which rotates,
// checkpoints and compacts as told and runs seeded crash-cut recovery
// drills mid-run; -disk-ceiling-mb turns the run into a
// bounded-footprint gate: if compaction ever lets the direct twin's
// directory grow past the ceiling, the run fails with a repro line.
//
//	shieldstorm -seed 1 -ops 100000
//	shieldstorm -seed 1 -seeds 16 -ops 250000     # nightly soak
//	shieldstorm -hot -seed 7 -ops 100000
//	shieldstorm -bitrot -seed 1 -seeds 200 -ops 400
//	shieldstorm -seed 1 -ops 10000000 -checkpoint-every 500000 -disk-ceiling-mb 1024
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/torture"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "first workload seed")
		seeds   = flag.Int("seeds", 1, "number of consecutive seeds to run")
		ops     = flag.Int("ops", 100_000, "operations per seed")
		hot     = flag.Bool("hot", false, "run the concurrent hot-dataset storm instead of the sequential differential")
		bitrot  = flag.Bool("bitrot", false, "run the bit-rot mode instead: seeded single-bit flips in a built store, every reader must name the damage")
		verbose = flag.Bool("v", false, "print per-checkpoint progress")

		storeDir   = flag.String("store-dir", "", "directory for the twins' stores (default a temp dir, removed after the run)")
		segRecords = flag.Int64("segment-records", 0, "direct twin: records per segment before rotation (default 65536)")
		ckptEvery  = flag.Int64("checkpoint-every", 0, "direct twin: commands between snapshot checkpoints (default 10000; negative disables)")
		retainSegs = flag.Int("retain-segments", 0, "direct twin: covered sealed segments to keep (default 0; negative keeps all)")
		ceilingMB  = flag.Int64("disk-ceiling-mb", 0, "direct twin: fail if its store directory exceeds this many MiB (0 = unbounded)")
	)
	flag.Parse()

	for s := *seed; s < *seed+uint64(*seeds); s++ {
		cfg := torture.Config{
			Seed: s,
			Ops:  *ops,
			Store: journal.StoreConfig{
				SegmentRecords:  *segRecords,
				CheckpointEvery: *ckptEvery,
				RetainSegments:  *retainSegs,
			},
			StoreDiskCeilingBytes: *ceilingMB << 20,
		}
		// The sequential run makes its own temporary directory; the hot
		// storm and bit rot need one named.
		dir := *storeDir
		if dir == "" && (*hot || *bitrot) {
			tmp, err := os.MkdirTemp("", "shieldstorm-store-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "shieldstorm:", err)
				os.Exit(2)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		if dir != "" {
			// One subdirectory per seed: a store directory is a
			// journal, and each seed is a fresh history.
			cfg.StoreDir = filepath.Join(dir, fmt.Sprintf("seed-%d", s))
			if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "shieldstorm:", err)
				os.Exit(2)
			}
		}
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Printf("seed %d: "+format+"\n", append([]any{s}, args...)...)
			}
		}
		start := time.Now()
		var rep *torture.Report
		var err error
		what := ""
		switch {
		case *hot:
			what = "hot storm, "
			rep, err = torture.RunHot(torture.HotConfig{Seed: s, Ops: *ops, Dir: cfg.StoreDir, Logf: cfg.Logf})
		case *bitrot:
			what = "bit rot, "
			rep, err = torture.RunBitrot(torture.BitrotConfig{Seed: s, Ops: *ops, Dir: cfg.StoreDir, Logf: cfg.Logf})
		default:
			rep, err = torture.Run(cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("seed %d: PASS %s%d ops in %v — %d allocations, revenue %s, %d rejections, %d checkpoints\n",
			s, what, rep.Ops, time.Since(start).Round(time.Millisecond),
			rep.Allocations, rep.Revenue, rep.Rejections, rep.Checkpoints)
		if *hot || *bitrot {
			continue
		}
		fmt.Printf("seed %d: direct twin store %d segments, %d snapshot checkpoints, %d crash cuts, disk peak %.1f MiB\n",
			s, rep.StoreSegments, rep.StoreCheckpoints, rep.StoreCrashCuts,
			float64(rep.StoreDiskPeak)/(1<<20))
		if *verbose {
			kinds := make([]string, 0, len(rep.OpCounts))
			for k := range rep.OpCounts {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			var parts []string
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%s=%d", k, rep.OpCounts[k]))
			}
			fmt.Printf("seed %d: mix %s\n", s, strings.Join(parts, " "))
		}
	}
}
