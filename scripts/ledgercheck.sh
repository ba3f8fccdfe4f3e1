#!/usr/bin/env bash
# Checks every committed benchmark ledger (a BENCH_*.json at the root of
# the repo with a "metrics" object — what scripts/benchpairs.sh writes):
#
#   scripts/ledgercheck.sh
#   make ledger-check
#
# A ledger must carry the host block (nproc, gomaxprocs, go_version,
# kernel, journal_fs, fsync), parent, change, workload and seed, at least
# 10 pairs, and, for each end-to-end metric of BENCHMARK.json, a verdict
# from the set benchpairs.sh prints. A "worse than bound" verdict fails it.
# Every failure names the file and the field; the exit status is 1 if any
# ledger fails.
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
		[ "$ok" -eq 0 ] || echo "ledger-check: $f ok"
	fi
	[ "$ok" -eq 1 ] || status=1
done
exit "$status"
