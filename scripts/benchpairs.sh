#!/usr/bin/env bash
# Paired benchmark runs, parent against this tree:
#
#   bash scripts/benchpairs.sh [-aa] <parent-ref> <workload> <seed> [pairs]
#   make bench-pairs PARENT=<ref> WORKLOAD=<w> SEED=<n> PAIRS=10
#
# Extracts <parent-ref> with `git archive` under .bench_build/parent/ and
# runs each tree's own, unedited benchmark/run.sh — the working tree is
# the "change" side, uncommitted edits included — in alternation, the
# order flipped every pair, at the run length BENCHMARK.json fixes. Then,
# for every end-to-end metric BENCHMARK.json gates: each run's value,
# both sides' quartiles, the spread (q3 - q1) relative to that side's own
# median, the pairs the change won (ties count for neither), and a
# verdict, the first of these that holds:
#
#   gain              the change won at least 9 pairs in 10, and its median
#                     is better than the parent's by more than the parent's
#                     q3 - q1
#   unresolved        a side's (q3 - q1)/median is wider than the metric's
#                     bound in BENCHMARK.json, and not every change run
#                     beats every parent run
#   worse than bound  the change's median is worse than the parent's by more
#                     than the bound
#   within bound      otherwise
#
# This is the table benchmark/README "Naming a claim" asks a PR to report.
# The same figures, with the host the change side ran on (from its first
# run's host line), both revisions, the workload, seed and pair count, go
# to .bench_build/pairs/ledger.json.
#
# With -aa the parent's tree runs on both sides (an A/A run): the same
# table and ledger, whose "change" is the parent too, measure the noise
# floor, and the ledger is also written to BENCH_noise_<workload>.json at
# the root of the repo, where scripts/ledgercheck.sh holds every claim on
# that workload to exceed it.
#
# Each run's host health goes to the ledger's "health" block too: the
# share of CPU time the hypervisor stole from the host while it ran
# (/proc/stat) and the 1-minute load when it ended (/proc/loadavg). The
# verdict ignores them; scripts/ledgercheck.sh names a ledger whose worst
# run lost more than 10 % to steal.
#
# A run that fails, or whose result line does not say "correct":true with
# no failed operations, stops the script: nothing is averaged over it.
# Each run is its own process group (scripts/rungroup.sh), and a run that
# leaves a process of its group alive fails too, naming it.
# Numbers are this host's, and only runs taken in one session compare.
set -euo pipefail

aa=
if [ "${1:-}" = -aa ]; then
	aa=1
	shift
fi
if [ $# -lt 3 ]; then
	sed -n '2,5p' "$0" >&2
	exit 2
fi
parent_ref=$1 workload=$2 seed=$3 pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
parent="$root/.bench_build/parent"
out="$root/.bench_build/pairs"
rm -rf "$out"
mkdir -p "$parent" "$out"
# A fresh copy of the parent's files; its own .bench_build (the Go build
# cache of an earlier session) is worth keeping.
find "$parent" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$parent_ref" | tar -x -C "$parent"

# cpu_times: the host's total and stolen CPU time so far, in jiffies.
cpu_times() {
	awk '/^cpu / { print $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9, $9; exit }' /proc/stat 2>/dev/null || echo 0 0
}

# run <side> <pair>: one benchmark run in that side's tree; its output is
# kept, its result line appended to <side>.results, its steal share and
# closing load to <side>.steal and <side>.load1.
run() {
	local side=$1 pair=$2 dir=$root log total0 steal0 total1 steal1 load1
	if [ "$side" = parent ] || [ -n "$aa" ]; then dir=$parent; fi
	log="$out/$side.$pair.log"
	read -r total0 steal0 < <(cpu_times)
	if ! (cd "$dir" && bash "$root/scripts/rungroup.sh" bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
		tail -20 "$log" >&2
		echo "benchpairs: $side run of pair $pair failed (see $log)" >&2
		exit 1
	fi
	local result
	result=$(tail -1 "$log")
	case $result in
	*'"correct":true'*'"failed":0,'*) ;;
	*)
		grep '^check' "$log" >&2 || true
		echo "benchpairs: $side run of pair $pair is not correct: $result" >&2
		exit 1
		;;
	esac
	echo "$result" >>"$out/$side.results"
	read -r total1 steal1 < <(cpu_times)
	load1=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
	awk -v dt=$((total1 - total0)) -v ds=$((steal1 - steal0)) 'BEGIN { printf "%.4f\n", (dt > 0 ? ds / dt : 0) }' >>"$out/$side.steal"
	echo "$load1" >>"$out/$side.load1"
	echo "pair $pair $side: $(grep '^check' "$log" | head -1) steal=$(tail -1 "$out/$side.steal") load1=$load1"
}

# list <file>: its lines as a JSON array's elements.
list() { paste -sd, "$1" | sed 's/,/, /g'; }

change_rev=$(git rev-parse HEAD)$(git diff --quiet HEAD -- || echo "+uncommitted")
[ -z "$aa" ] || change_rev=$(git rev-parse "$parent_ref")
echo "benchpairs: $workload seed=$seed seconds=$seconds pairs=$pairs parent=$(git rev-parse --short "$parent_ref") change=${aa:+the parent again (A/A), }$change_rev"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pair"
		run change "$pair"
	else
		run change "$pair"
		run parent "$pair"
	fi
done

# values <side> <metric>: that metric's value in each run, in run order.
values() {
	sed -n "s/.*\"$2\":{\"value\":\([^,]*\),.*/\1/p" "$out/$1.results"
}

# The gated metrics, which way is better and the bound, from
# BENCHMARK.json's end_to_end block.
awk '/"end_to_end"/ {on = 1} on && /"name"/ {gsub(/[",]/, ""); name = $2}
	on && /"better"/ {gsub(/[",]/, ""); better = $2}
	on && /"bound"/ {gsub(/[",]/, ""); print name, better, $2} on && /\]/ {exit}' BENCHMARK.json |
	while read -r metric better bound; do
		echo
		echo "$metric ($better is better)"
		for side in parent change; do
			echo "  $side runs: $(values "$side" "$metric" | tr '\n' ' ')"
		done
		paste <(values parent "$metric") <(values change "$metric") | awk -v better="$better" -v bound="$bound" -v metric="$metric" -v json="$out/metrics.jsonl" '
			function quartile(v, n, p,    pos, lo) {
				pos = (n - 1) * p; lo = int(pos)
				return lo + 1 >= n ? v[n] : v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1])
			}
			function summary(side, v, n,    q1, med, q3) {
				q1 = quartile(v, n, 0.25); med = quartile(v, n, 0.5); q3 = quartile(v, n, 0.75)
				quart[side] = sprintf("\"q1\": %.6g, \"median\": %.6g, \"q3\": %.6g", q1, med, q3)
				printf "  %-6s q1 %-12.6g median %-12.6g q3 %-12.6g (q3-q1)/median %.1f%%\n", side, q1, med, q3, med ? 100 * (q3 - q1) / med : 0
				iqr[side] = q3 - q1; spread[side] = med ? (q3 - q1) / med : 0
				return med
			}
			# gain: how much better a is than b, by the metric.
			function gain(a, b) { return better == "higher" ? a - b : b - a }
			function sorted(v, n,    i, j, t) {
				for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
			}
			{
				p[NR] = $1 + 0; c[NR] = $2 + 0
				runs["parent"] = runs["parent"] (NR > 1 ? ", " : "") $1
				runs["change"] = runs["change"] (NR > 1 ? ", " : "") $2
				if (p[NR] == c[NR]) ties++
				else if ((better == "higher") == (c[NR] > p[NR])) wins++
			}
			END {
				sorted(p, NR); sorted(c, NR)
				pm = summary("parent", p, NR); cm = summary("change", c, NR)
				printf "  change wins %d of %d pairs (%d ties); change median / parent median = %.3f\n", wins, NR, ties, pm ? cm / pm : 0
				# Sorted, so the worst change run against the best parent run.
				allbetter = better == "higher" ? gain(c[1], p[NR]) > 0 : gain(c[NR], p[1]) > 0
				if (10 * wins >= 9 * NR && gain(cm, pm) > iqr["parent"]) verdict = "gain"
				else if ((spread["parent"] > bound || spread["change"] > bound) && !allbetter) verdict = "unresolved"
				else if (-gain(cm, pm) > bound * (pm < 0 ? -pm : pm)) verdict = "worse than bound"
				else verdict = "within bound"
				printf "  verdict: %s (bound %g)\n", verdict, bound
				printf "    \"%s\": {\"better\": \"%s\", \"bound\": %s,\n", metric, better, bound >>json
				printf "      \"parent\": {\"runs\": [%s], %s},\n", runs["parent"], quart["parent"] >>json
				printf "      \"change\": {\"runs\": [%s], %s},\n", runs["change"], quart["change"] >>json
				printf "      \"wins\": %d, \"ties\": %d, \"verdict\": \"%s\"}\n", wins, ties, verdict >>json
			}'
	done

# host_field <key>: that field of the change side's first host line.
host_field() {
	sed -n "s/^host:.* $1=\([^ ]*\).*/\1/p" "$out/change.1.log"
}
{
	printf '{\n  "generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "host": {"nproc": %s, "gomaxprocs": %s, "go_version": "%s", "kernel": "%s", "journal_fs": "%s", "fsync": "%s"},\n' \
		"$(host_field cores)" "$(host_field gomaxprocs)" "$(host_field go)" "$(host_field kernel)" "$(host_field journal_fs)" "$(host_field fsync)"
	printf '  "parent": "%s",\n  "change": "%s",\n' "$(git rev-parse "$parent_ref")" "$change_rev"
	printf '  "workload": "%s",\n  "seed": %s,\n  "pairs": %s,\n  "seconds": %s,\n' "$workload" "$seed" "$pairs" "$seconds"
	printf '  "health": {\n'
	printf '    "parent": {"steal": [%s], "load1": [%s]},\n' "$(list "$out/parent.steal")" "$(list "$out/parent.load1")"
	printf '    "change": {"steal": [%s], "load1": [%s]}\n  },\n' "$(list "$out/change.steal")" "$(list "$out/change.load1")"
	printf '  "metrics": {\n'
	# Each metric's block ends in "}"; all but the last take a comma.
	sed '$!s/^\(      "wins".*}\)$/\1,/' "$out/metrics.jsonl"
	printf '  }\n}\n'
} >"$out/ledger.json"
echo
echo "benchpairs: wrote $out/ledger.json"
if [ -n "$aa" ]; then
	cp "$out/ledger.json" "BENCH_noise_$workload.json"
	echo "benchpairs: wrote BENCH_noise_$workload.json"
fi
