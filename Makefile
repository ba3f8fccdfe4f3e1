# Development targets. `make ci` is the full gate a change must pass.

GO ?= go

.PHONY: ci fmt-check vet build test race bench bench-compile bench-repo bench-repo-smoke bench-pairs ledger-check loc fuzz-smoke metrics-lint torture torture-smoke torture-long bitrot-smoke slo-smoke slo-full replica-smoke segment-smoke cover

ci: fmt-check vet metrics-lint build race test fuzz-smoke torture-smoke bitrot-smoke torture segment-smoke slo-smoke replica-smoke bench-compile bench-repo-smoke ledger-check

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet, then eight house rules. A binary varint is read and written
# only by internal/binenc's walkers, so no hand-rolled byte cursor creeps
# back beside them; fails listing every non-test call outside binenc.
# Every write reaches the state as bytes, through market.Market's
# methods (and a journal's route), so nothing but the command core, the
# torture reference model and the benchmark's bare rung calls the typed
# command.Apply; fails listing file:line. One assembly builds a server:
# outside internal/node (what marketd and the load rig start), the
# torture harness, shield.go's handlers and benchmark/, nothing builds a
# wire or HTTP server, a follower or a replication feed by hand, so the
# rig cannot drift from the daemon; fails listing file:line. A store's
# segment chain is read by one walker, internal/journal/chain.go, so
# recovery, journal-verify, journal-info and its dump refuse the same
# broken chains: nothing else reads a seghead or scans a segment by
# name, and outside internal/journal and benchmark/ nothing names the
# segment suffix to list segment files itself; fails listing file:line. One open-loop driver paces live
# traffic, internal/loadrig's (cmd/shieldload, its -addr a running
# server), so outside it and benchmark/'s probes nothing calls
# loadrig.NewPacer to grow a second; fails listing file:line. And the
# applier's packages import no clock, OS, lock or ambient randomness, so
# a command's outcome is a function of the state and the command alone
# and replay rebuilds what was acknowledged; fails naming the package
# and the import. And an HTTP request's shield-side state lives in its
# one requestState, whose context handlers read through stateOf, so no
# non-test internal/httpapi code copies a request with WithContext;
# fails listing file:line. And each mechanism has one implementation, the
# one the program runs: every exported package-level function under
# internal/ is named by some non-test Go file (declarations and comment
# lines do not count), so no second copy lives on for its own tests;
# fails listing file: name. UNCALLED_OK names the exceptions.
APPLIER_PKGS = command core mw auction rng provenance binenc
# faultfs.NewSeeded, obs.WithRequestID and obs.WithTrace: other
# packages' tests call them. torture.CommandCorpus and SettleCorpus:
# the fuzz targets' seeds. mw.OptimalEta: the regret-bound learning
# rate, kept for ROADMAP item 12.
UNCALLED_OK = faultfs.NewSeeded obs.WithRequestID obs.WithTrace torture.CommandCorpus torture.SettleCorpus mw.OptimalEta
vet:
	$(GO) vet ./...
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/binenc/' | \
		xargs grep -n -E 'binary\.(Append)?Uvarint\(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "binary.Uvarint/AppendUvarint outside internal/binenc (walk the field with binenc):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/command/' -e '^internal/torture/reference\.go$$' -e '^benchmark/' | \
		xargs grep -n -F 'command.Apply(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "command.Apply outside the command core, the torture reference and benchmark/ (write through market.Market):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/node/' -e '^internal/torture/' -e '^shield\.go$$' -e '^benchmark/' | \
		xargs grep -n -E '(wire\.NewServer|httpapi\.New(Server|Journaled|Replica)|replica\.(Start|NewFeed))\(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "a server assembled outside internal/node, the torture harness, shield.go and benchmark/ (start it with node.Start):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/journal/chain\.go$$' | \
		xargs grep -n -E '(readSegHead|scanSegment)\(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "a segment chain read outside internal/journal/chain.go (walk it with walkChain):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/journal/' -e '^benchmark/' | \
		xargs grep -n -F '.seg"' /dev/null)"; if [ -n "$$out" ]; then \
		echo "segment files named outside internal/journal and benchmark/ (read a store with journal's readers):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$$' -e '^internal/loadrig/' -e '^benchmark/' | \
		xargs grep -n -F 'loadrig.NewPacer(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "an open-loop driver outside internal/loadrig and benchmark/ (drive a server with shieldload -addr):"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -f '{{.ImportPath}} {{.Imports}}' $(APPLIER_PKGS:%=./internal/%) | tr -d '[]' | \
		awk '{ for (i = 2; i <= NF; i++) if ($$i ~ /^(time|os|sync|sync\/atomic|math\/rand|math\/rand\/v2)$$/) print $$1 " imports " $$i }')"; \
		if [ -n "$$out" ]; then echo "clock, OS or concurrency import in an applier package:"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- 'internal/httpapi/*.go' | grep -v '_test\.go$$' | \
		xargs grep -n -F '.WithContext(' /dev/null)"; if [ -n "$$out" ]; then \
		echo "a request copied in internal/httpapi (read its context from requestState with stateOf):"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -co --exclude-standard -- 'internal/*.go' | grep -v '_test\.go$$' | \
		xargs grep -H -o -E '^func [A-Z][A-Za-z0-9_]*' | sed 's/:func / /' | while read -r f n; do \
		d="$${f%/*}"; case " $(UNCALLED_OK) " in *" $${d##*/}.$$n "*) continue ;; esac; \
		git grep --untracked -n -w "$$n" -- '*.go' ':!*_test.go' | \
			grep -v -E -e ":func $$n[[(]" -e ':[0-9]+:[[:space:]]*//' | grep -q . || echo "$$f: $$n"; done)"; \
		if [ -n "$$out" ]; then \
		echo "an exported function under internal/ that only tests call (delete it, or call the one the program runs):"; echo "$$out"; exit 1; fi

# Static check over every metric the binaries register: naming
# conventions (shield_ prefix, unit suffixes), label hygiene, and
# histogram bucket sanity. Catches drift before a dashboard does.
metrics-lint:
	$(GO) run ./cmd/metricslint

build:
	$(GO) build ./...

# The concurrency-sensitive packages run under the race detector: the
# market arbiter (one writer, lock-free readers), the command core it
# drives, the HTTP layer, the journal (the commit stage — the
# hot-dataset ordering probe and the nothing-visible-before-durable
# tests live here — and the crash-recovery harness), the telemetry
# registry/tracer (scraped while updated), the replication
# feed/follower (commit hook racing subscribers and kills), the
# shieldtop poller (refresh loop racing terminal resize/teardown), the
# torture harness's concurrent storm with its ordering canary, and the
# simulation path — sim.RunGrid's workers share the output slots, the
# failure record and every factory a figure hands them, and each
# experiment and marketsim formatter runs on top of it. The races that
# need many tries repeat ten times: the market's shared log and bitsets
# under readers, its participant registries doubling under readers, a
# checkpoint encoding the cut's shared name and transaction views while
# the stage appends to them, a wire bid's body, read by the commit
# stage from the connection's payload buffer while the connection waits,
# ScanRecords' reader goroutine, stopped and gone on every way a scan
# ends, a follower's catch-up scan of the leader's segments, which
# holds no leader lock and splices in the ring exactly once, the
# convergence check every driver shares, which polls a follower's
# applied seq while it applies, and a node's Close, which closes the
# connections its HTTP servers' hooks track while they accept and
# serve.
race:
	$(GO) test -race ./internal/market/... ./internal/command/... ./internal/httpapi/... ./internal/journal/... ./internal/obs/... ./internal/wire/... ./internal/client/... ./internal/replica/... ./internal/loadrig/... ./cmd/shieldtop/... ./cmd/metricslint/... ./internal/sim/... ./internal/experiments/... ./cmd/marketsim/...
	$(GO) test -race -run 'TestHotStorm' ./internal/torture/
	$(GO) test -race -run 'TestSharedLogAndBitsetsUnderReaders|TestRegistryGrowsUnderReaders' -count=10 ./internal/market/
	$(GO) test -race -run 'TestStoreCheckpointsMatchReplayUnderHotDatasetConcurrency' -count=10 ./internal/journal/
	$(GO) test -race -run 'TestRequestContextDoesNotLeakIdentity|TestRecordIsTheRequest' -count=10 ./internal/wire/
	$(GO) test -race -run 'TestRunGridLeavesNoGoroutines' -count=10 ./internal/sim/
	$(GO) test -race -run 'TestScanRecordsLeavesNoGoroutines' -count=10 ./internal/journal/
	$(GO) test -race -run 'TestCatchupScanHoldsNoLeaderLock|TestCatchupSpliceIsExactlyOnce|TestAwaitConverged' -count=10 ./internal/replica/
	$(GO) test -race -run 'TestCloseDropsIdleConnections' -count=10 ./cmd/marketd/

test:
	$(GO) test ./...

# Every fuzz target gets a short randomized run on each CI pass; real
# corpus-growing sessions use `go test -fuzz <target> -fuzztime 10m` by
# hand. Go allows one -fuzz target per invocation, hence the loop. The
# journal reader's seed corpus holds v3 frame logs, torn, with flipped
# checksums and giant lengths, and the older logs it must refuse by name;
# the migration's holds those older logs, which it must rewrite record for
# record. The snapshot
# fuzzer's seeds are whole market snapshots, kilobytes each, so its
# minimizer is capped: left alone it spends the whole smoke shrinking the
# first interesting input.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzReadNeverPanics$$' -fuzztime $(FUZZ_TIME) ./internal/journal/
	$(GO) test -run xxx -fuzz '^FuzzMigrateRecords$$' -fuzztime $(FUZZ_TIME) ./internal/journal/
	$(GO) test -run xxx -fuzz '^FuzzDescriptiveNeverNonsense$$' -fuzztime $(FUZZ_TIME) ./internal/stats/
	$(GO) test -run xxx -fuzz '^FuzzWilcoxonBounds$$' -fuzztime $(FUZZ_TIME) ./internal/stats/
	$(GO) test -run xxx -fuzz '^FuzzOptimalPrice$$' -fuzztime $(FUZZ_TIME) ./internal/auction/
	$(GO) test -run xxx -fuzz '^FuzzEpochPricerNeverPanics$$' -fuzztime $(FUZZ_TIME) ./internal/auction/
	$(GO) test -run xxx -fuzz '^FuzzBidBatchDecode$$' -fuzztime $(FUZZ_TIME) ./internal/httpapi/
	$(GO) test -run xxx -fuzz '^FuzzQueryParamMatchesURLQuery$$' -fuzztime $(FUZZ_TIME) ./internal/httpapi/
	$(GO) test -run xxx -fuzz '^FuzzDecodeObjectMatchesUnmarshal$$' -fuzztime $(FUZZ_TIME) ./internal/client/
	$(GO) test -run xxx -fuzz '^FuzzCommandDecode$$' -fuzztime $(FUZZ_TIME) ./internal/command/
	$(GO) test -run xxx -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 10x ./internal/command/
	$(GO) test -run xxx -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzReplicateDecode$$' -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzPowMatchesMathPow$$' -fuzztime $(FUZZ_TIME) ./internal/mw/
	$(GO) test -run xxx -fuzz '^FuzzRoundMatchesStep$$' -fuzztime $(FUZZ_TIME) ./internal/mw/

# Model-based torture, two halves. The sequential differential: seeded
# workloads against the reference model through direct, instrumented
# and wire twins, each a store checked by the shared recovery and books
# checks, and a follower twin. The concurrent storm (-hot): goroutines piled
# onto one dataset of a store-backed journaled market, with journal
# replay, store recovery and the follower pinned byte-identical to the
# leader at every checkpoint. Failures print a `shieldstorm [-hot] -seed
# N -ops M` reproduction line.
TORTURE_SEED ?= 1
torture:
	$(GO) run ./cmd/shieldstorm -seed $(TORTURE_SEED) -seeds 2 -ops 100000
	$(GO) run ./cmd/shieldstorm -hot -seed $(TORTURE_SEED) -seeds 2 -ops 100000

# Quick concurrent pass — catches an ordering bug in the commit stage in
# seconds before ci pays for the full runs. Its follower that joins
# mid-storm catches up from the leader's segments while writers commit.
torture-smoke:
	$(GO) run ./cmd/shieldstorm -hot -seed $(TORTURE_SEED) -seeds 1 -ops 20000

# Integrity gate: 200 seeded stores, a dozen single-bit flips each across
# frames, checkpoints and segheads. Recovery, a
# leader's open, a follower's cold restart and the offline verifier must
# each name the damage (checksum error with file, seq and offset) or —
# past bytes they never read — rebuild the builder's market exactly.
bitrot-smoke:
	$(GO) run ./cmd/shieldstorm -bitrot -seed $(TORTURE_SEED) -seeds 200 -ops 400

# Nightly soak: many seeds, longer histories.
torture-long:
	$(GO) run ./cmd/shieldstorm -seed $(TORTURE_SEED) -seeds 16 -ops 250000 -v

# Segmented-store gate: a differential storm whose direct twin's store
# rotates small segments — segment rotation, snapshot checkpoints,
# background compaction and two seeded crash-cut recovery drills, all
# under a disk ceiling —
# then the load rig's -compact-every scenario, where checkpointing and
# compaction run against live load and the bid tail must hold the SLO.
# First, the migration: every frozen input an older build left must
# migrate to the state that build rebuilt, idempotently and crash-safely,
# be refused by name until it has, and — for the stores a version-2 and a
# version-3 build wrote — then open, append, rotate, checkpoint and
# recover byte-identically.
segment-smoke:
	$(GO) test -count=1 -run '^(TestMigrate.*|TestV[23]StoreUpgradesInPlace)$$' ./internal/journal/
	$(GO) run ./cmd/shieldstorm -seed $(TORTURE_SEED) -ops 20000 \
		-segment-records 512 -checkpoint-every 2000 -disk-ceiling-mb 64
	$(GO) run ./cmd/shieldload -transport both -clients 512 -rate 1500 \
		-ops 6000 -tick-every 400 -compact-every 1000 -segment-records 512 \
		-slo 'bid.p99<1s,error_rate<0.1%,throughput>=500'

# Aggregate statement coverage across all packages; the closing line is
# the figure recorded in EXPERIMENTS.md.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Every microbenchmark — the journal's (BenchmarkRecoverDir is the
# store_recover profile), the wire protocol's, the MW learner's, the
# engine's, the auction's, the market's, telemetry's, the RNG's, the
# HTTP client's reads (BenchmarkHTTPRead), the
# paper_sim round (BenchmarkPaperRound, the profile the simulated figures
# are tuned against) and the 21 per-figure ones — compiles and runs one
# iteration, so none rots between the sessions that use them.
bench-compile:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/journal/ ./internal/wire/ ./internal/mw/ ./internal/core/ ./internal/auction/ ./internal/market/ ./internal/obs/ ./internal/rng/ ./internal/client/ ./internal/experiments/ .

# Non-test Go lines, in total and per top-level directory — the figure
# every PR states — beside PARENT's (default HEAD) and the net.
loc:
	@bash scripts/loc.sh $(PARENT)

# Cluster-in-process load rig with SLO gates (cmd/shieldload): one
# process boots marketd's own server (internal/node: HTTP + wire over a
# group-commit journaled market), drives 1k+ persona clients open-loop,
# and fails on an SLO, money-conservation, or journal-replay violation.
# The smoke thresholds are deliberately loose — they gate against order-
# of-magnitude regressions and broken accounting, not CI-machine noise.
slo-smoke:
	$(GO) run ./cmd/shieldload -transport both -clients 1024 -rate 1500 \
		-ops 9000 -tick-every 400 \
		-slo 'bid.p99<1s,query.p99<1s,error_rate<0.1%,throughput>=500'

# Replication smoke: the leader plus two in-process read replicas, a
# tenth of the traffic served by the replicas, one follower killed and
# redialing at the schedule midpoint. Gates on the replica read tail,
# the worst replication staleness any follower showed (including the
# kill's reconnect window), and the post-run invariant that every
# follower snapshot converges byte-identical to the leader's.
replica-smoke:
	$(GO) run ./cmd/shieldload -transport both -clients 512 -rate 1500 \
		-ops 6000 -tick-every 400 -followers 2 -replica-fraction 0.1 \
		-replica-kill \
		-slo 'bid.p99<1s,replica.p99<1s,replica.lag<5s,error_rate<0.1%'

# Longer gate for local perf work: more clients, more load, a tighter
# tail budget and a real throughput floor.
slo-full:
	$(GO) run ./cmd/shieldload -transport both -clients 2048 -rate 2500 \
		-ops 50000 -tick-every 500 \
		-slo 'bid.p99<500ms,bid.p999<2s,query.p99<500ms,error_rate<0.1%,throughput>=2000'

# The repository benchmark (BENCHMARK.json, benchmark/README.md): the
# four workloads at the length the driver runs them, end-to-end metrics
# only. Numbers are this host's; compare only runs taken in alternation.
BENCH_WORKLOADS = wire_bid_durable http_read_mix store_recover paper_sim
BENCH_SEED ?= 1
bench-repo:
	@for w in $(BENCH_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed $(BENCH_SEED) --seconds 12 --trace 0 || exit 1; \
	done

# A performance claim's evidence (benchmark/README "Naming a claim"):
# PAIRS alternating runs of one workload on PARENT — extracted with git
# archive under .bench_build/parent/ — and on this working tree, each
# with its own unedited benchmark/run.sh, then per gated metric both
# sides' quartiles, spread over own median, and the pairs the change won.
# Use a SEED the change was not developed on.
PARENT ?= HEAD
WORKLOAD ?= store_recover
PAIRS ?= 10
bench-pairs:
	bash scripts/benchpairs.sh $(PARENT) $(WORKLOAD) $(or $(SEED),$(BENCH_SEED)) $(PAIRS)

# Every committed pairs ledger (a BENCH_*.json with a "metrics" object)
# carries its host, revisions, workload, seed, at least 10 pairs and a
# verdict for each gated metric, and none is "worse than bound"; fails
# naming the file and the field.
ledger-check:
	@bash scripts/ledgercheck.sh

# CI variant: one second per workload, and the last line of each must
# say "correct":true — so a change that breaks a benchmark correctness
# check (money conservation, seq accounting, byte-identical recovery,
# byte-identical paper_sim rounds) fails here, before the pipeline that
# compares it against its parent ever runs it. The two serving
# workloads must also report replay_identical=1: the benchmark only
# reports that bit (its clients are concurrent), this gate requires it.
# Each run is its own process group (scripts/rungroup.sh): a run that
# leaves a process alive fails, naming it, and the group is stopped.
bench-repo-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		out="$$(bash scripts/rungroup.sh bash benchmark/run.sh --workload $$w --seed $(BENCH_SEED) --seconds 1 --trace 0)"; status=$$?; \
		if [ $$status -ne 0 ] || ! printf '%s\n' "$$out" | tail -1 | grep -q '"correct":true'; then \
			printf '%s\n' "$$out" | tail -25; \
			echo "bench-repo-smoke: $$w failed (exit $$status, or last line lacks \"correct\":true)"; exit 1; \
		fi; \
		case $$w in wire_bid_durable|http_read_mix) \
			if ! printf '%s\n' "$$out" | grep '^check reported:' | grep -q 'replay_identical=1'; then \
				printf '%s\n' "$$out" | grep '^check'; \
				echo "bench-repo-smoke: $$w: journal replay does not rebuild the live market (replay_identical != 1)"; exit 1; \
			fi;; \
		esac; \
		echo "bench-repo-smoke: $$w ok"; \
	done
