#!/usr/bin/env bash
# Checks every committed benchmark ledger (a BENCH_*.json at the root of
# the repo with a "metrics" object — what scripts/benchpairs.sh writes),
# and that every claim EXPERIMENTS.md makes is held by one:
#
#   scripts/ledgercheck.sh
#   make ledger-check
#
# A ledger must carry the host block (nproc, gomaxprocs, go_version,
# kernel, journal_fs, fsync), parent, change, workload and seed, at least
# 10 pairs, and, for each end-to-end metric of BENCHMARK.json, a verdict
# from the set benchpairs.sh prints. A "worse than bound" verdict fails it.
# A ledger with a "health" block has its worst run's steal share printed,
# and is named, not failed, when that is above 10 %: its runs shared the
# host. A ledger without the block passes as before.
#
# Every EXPERIMENTS.md entry from X34 on carries exactly one claim line,
#
#   claim: none [why]
#   claim: <workload> <metric> BENCH_<pr>.json @<code-commit>
#
# where <code-commit> is the last commit of the claiming change that
# edits Go. A claim holds only if the ledger is a committed pairs ledger
# of <workload> whose verdict for <metric> is "gain", and whose change
# revision has the Go files of <code-commit> (git diff --quiet <change>
# <code-commit> -- '*.go'): a ledger measured before a later code edit,
# or on uncommitted code, cannot hold it. When the workload has a noise
# ledger, BENCH_noise_<workload>.json (an A/A run, benchpairs.sh -aa),
# the claim's gap — how much better the change's median is than the
# parent's — must also exceed that run's noise floor on the metric: the
# larger of its median gap, taken either way, and the distance between
# the quartiles of its parent side (a median gap alone can read 0 over
# runs that spread); a claim on a workload without one is printed, not
# failed. A claim that holds above a noise floor has its margin printed,
# never failed: its gap over the floor, or "deterministic" when every
# A/A run of the metric, on both sides, read the same value.
#
# Every failure names the file, or the entry, and the field; the exit
# status is 1 if any ledger or claim fails.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# flatten <file>: one "path<TAB>value" line per scalar of a JSON document
# (paths like host.kernel, metrics.setup_s.verdict, end_to_end[0].name;
# strings unquoted, escapes kept as written). Malformed JSON exits 1.
flatten() {
	awk 'BEGIN { RS = "\001" }
	function fail(msg) { printf "malformed JSON at byte %d: %s\n", pos, msg > "/dev/stderr"; exit 1 }
	function ws() { while (pos <= n && substr(s, pos, 1) ~ /[ \t\r\n]/) pos++ }
	function expect(c) { ws(); if (substr(s, pos, 1) != c) fail("want " c); pos++ }
	function str(   out, c) {
		expect("\"")
		for (out = ""; (c = substr(s, pos, 1)) != "\""; pos++) {
			if (pos > n) fail("unterminated string")
			if (c == "\\") { out = out c; c = substr(s, ++pos, 1) }
			out = out c
		}
		pos++
		return out
	}
	function value(path,   c, k, i, start) {
		ws(); c = substr(s, pos, 1)
		if (c == "\"") { print path "\t" str(); return }
		if (c == "{" || c == "[") {
			pos++; ws()
			if (substr(s, pos, 1) == (c == "{" ? "}" : "]")) { pos++; return }
			for (i = 0; ; i++) {
				if (c == "{") { k = str(); expect(":"); value(path == "" ? k : path "." k) }
				else value(path "[" i "]")
				ws()
				if (substr(s, pos, 1) != ",") break
				pos++
			}
			expect(c == "{" ? "}" : "]")
			return
		}
		for (start = pos; pos <= n && substr(s, pos, 1) !~ /[,}\] \t\r\n]/; pos++) {}
		if (pos == start) fail("want a value")
		print path "\t" substr(s, start, pos - start)
	}
	{ s = $0; n = length(s); pos = 1; value(""); ws(); if (pos <= n) fail("data after the value") }' "$1"
}

# The end-to-end metrics BENCHMARK.json gates.
metrics=$(flatten BENCHMARK.json | sed -n 's/^end_to_end\[[0-9]*\]\.name\t//p')
# The verdicts benchpairs.sh prints.
verdicts='gain|unresolved|worse than bound|within bound'

# field <path>: its value in the ledger being checked, empty when missing.
field() { sed -n "s/^$(sed 's/[].[]/\\&/g' <<<"$1")\t//p" <<<"$flat"; }
# gap <flattened ledger> <metric>: how much better the change side's
# median is than the parent's, by the metric's "better"; empty when a
# field is missing.
gap() {
	local better p c
	better=$(sed -n "s/^metrics\.$2\.better\t//p" <<<"$1")
	p=$(sed -n "s/^metrics\.$2\.parent\.median\t//p" <<<"$1")
	c=$(sed -n "s/^metrics\.$2\.change\.median\t//p" <<<"$1")
	if [ -n "$better" ] && [ -n "$p" ] && [ -n "$c" ]; then
		awk -v b="$better" -v p="$p" -v c="$c" 'BEGIN { printf "%.6g\n", b == "higher" ? c - p : p - c }'
	fi
}
# bad <message>: the ledger being checked fails.
bad() {
	echo "ledger-check: $f: $1"
	ok=0
}

status=0
for f in $(git ls-files -co --exclude-standard -- 'BENCH_*.json'); do
	ok=1
	if ! flat=$(flatten "$f"); then
		bad "not JSON"
	elif grep -q '^metrics\.' <<<"$flat"; then # else not a pairs ledger
		for key in host.nproc host.gomaxprocs host.go_version host.kernel host.journal_fs host.fsync parent change workload seed pairs; do
			[ -n "$(field "$key")" ] || bad "$key missing or empty"
		done
		pairs=$(field pairs)
		if [ -n "$pairs" ] && ! { [[ $pairs =~ ^[0-9]+$ ]] && [ "$pairs" -ge 10 ]; }; then
			bad "pairs is $pairs, want at least 10"
		fi
		for m in $metrics; do
			v=$(field "metrics.$m.verdict")
			if [ -z "$v" ]; then
				bad "metrics.$m.verdict missing"
			elif ! [[ $v =~ ^($verdicts)$ ]]; then
				bad "metrics.$m.verdict is \"$v\", not one of: ${verdicts//|/, }"
			elif [ "$v" = "worse than bound" ]; then
				bad "metrics.$m.verdict is \"worse than bound\""
			fi
		done
		steal=$(sed -n 's/^health\.[a-z]*\.steal\[[0-9]*\]\t//p' <<<"$flat" | sort -g | tail -1)
		if [ -n "$steal" ]; then
			echo "ledger-check: $f worst steal $(awk -v s="$steal" 'BEGIN { printf "%.1f %%", 100 * s }')"
			if awk -v s="$steal" 'BEGIN { exit !(s > 0.10) }'; then
				echo "ledger-check: $f: a run lost more than 10 % of the host to steal; its figures are suspect"
			fi
		fi
		[ "$ok" -eq 0 ] || echo "ledger-check: $f ok"
	fi
	[ "$ok" -eq 1 ] || status=1
done

# claims: one "<entry><TAB><claim text>" line per claim line of an entry
# from X34 on, and "<entry><TAB>!<n>" for one with n != 1 claim lines.
claims=$(awk '
	/^## / { id = ($2 ~ /^X[0-9]+$/ && substr($2, 2) + 0 >= 34) ? $2 : ""; if (id != "") n[id] = 0; next }
	id != "" && /^claim: / { print id "\t" substr($0, 8); n[id]++ }
	END { for (id in n) if (n[id] != 1) print id "\t!" n[id] }' EXPERIMENTS.md)
while IFS=$'\t' read -r entry claim; do
	f="EXPERIMENTS.md $entry"
	ok=1
	read -r workload metric ledger commit rest <<<"$claim"
	if [[ $claim == !* ]]; then
		bad "${claim#!} claim lines, want 1"
	elif [ "$workload" = none ]; then
		: # claims nothing
	elif [ -z "$commit" ] || [ -n "$rest" ] || [[ $commit != @* ]]; then
		bad "claim \"$claim\" is not <workload> <metric> BENCH_<pr>.json @<code-commit>"
	elif ! git ls-files --error-unmatch -- "$ledger" >/dev/null 2>&1 || ! flat=$(flatten "$ledger"); then
		bad "claim names $ledger, which is not a committed ledger"
	else
		commit=${commit#@} change=$(field change)
		if [ "$(field workload)" != "$workload" ]; then
			bad "claim names $ledger, a ledger of $(field workload), not $workload"
		elif [ "$(field "metrics.$metric.verdict")" != gain ]; then
			bad "claim names $ledger, whose $metric verdict is \"$(field "metrics.$metric.verdict")\", not \"gain\""
		elif ! git rev-parse -q --verify "$commit^{commit}" >/dev/null; then
			bad "claim names code commit $commit, which is not a commit"
		elif ! git rev-parse -q --verify "$change^{commit}" >/dev/null; then
			bad "$ledger measured $change, not a commit: the code it ran is not the code that shipped"
		elif ! git diff --quiet "$change" "$commit" -- '*.go'; then
			bad "$ledger measured $change, whose Go differs from the code commit $commit: a later edit is unmeasured"
		elif noise=BENCH_noise_$workload.json && [ ! -f "$noise" ]; then
			echo "ledger-check: $f: no $noise, so its gap is not held to a noise floor"
		elif ! noiseflat=$(flatten "$noise") || ! floor=$(gap "$noiseflat" "$metric") || [ -z "$floor" ] ||
			! iqr=$(sed -n "s/^metrics\.$metric\.parent\.q[13]\t//p" <<<"$noiseflat" | awk 'NR == 1 { q1 = $1 } NR == 2 { printf "%.6g\n", $1 - q1 }') || [ -z "$iqr" ]; then
			bad "$noise has no $metric medians and parent quartiles to take a noise floor from"
		else
			claimed=$(gap "$flat" "$metric") floor=$(awk -v g="${floor#-}" -v q="$iqr" 'BEGIN { printf "%.6g\n", (g > q ? g : q) }')
			# Distinct values among the A/A runs of the metric, both sides.
			distinct=$(sed -n "s/^metrics\.$metric\.\(parent\|change\)\.runs\[[0-9]*\]\t//p" <<<"$noiseflat" | sort -u | wc -l)
			if awk -v g="$claimed" -v f="$floor" 'BEGIN { exit !(g > f) }'; then
				if [ "$distinct" -eq 1 ]; then
					margin=deterministic
				else
					margin="margin $(awk -v g="$claimed" -v f="$floor" 'BEGIN { if (f > 0) printf "%.1fx", g / f; else print "unbounded (noise floor 0)" }')"
				fi
				echo "ledger-check: $f: $metric gap $claimed exceeds the noise floor $floor ($noise), $margin"
			else
				bad "$metric gap $claimed in $ledger does not exceed the noise floor $floor in $noise"
			fi
		fi
	fi
	[ "$ok" -eq 0 ] || echo "ledger-check: $f ok"
	[ "$ok" -eq 1 ] || status=1
done <<<"$claims"
exit "$status"
