#!/usr/bin/env bash
# Non-test Go lines, in total and per top-level directory: the figure
# every PR states (ROADMAP ground rules).
#
#   scripts/loc.sh           the working tree (tracked and new files alike)
#   scripts/loc.sh <rev>     the same beside <rev>, with the net per row
#
# A line is a newline, as `wc -l` counts; a test file is *_test.go. <rev>
# is read with git ls-tree / git show, so no checkout or worktree is made.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Each prints "<lines> <path>" per non-test Go file.
tree_lines() {
	git ls-files -co --exclude-standard -- '*.go' | grep -v '_test\.go$' | while read -r f; do
		[ -f "$f" ] && echo "$(wc -l <"$f") $f"
	done
}
rev_lines() {
	git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
		echo "$(git show "$1:$f" | wc -l) $f"
	done
}

rev="${1:-}"
{
	tree_lines | sed 's/^/now /'
	if [ -n "$rev" ]; then rev_lines "$rev" | sed 's/^/parent /'; fi
} | awk -v rev="$rev" '
	{
		dir = ($3 ~ /\//) ? substr($3, 1, index($3, "/") - 1) : "."
		n[$1, dir] += $2; n[$1, "total"] += $2; dirs[dir] = 1
	}
	function row(d) {
		if (rev == "") return sprintf("%-12s %8d", d, n["now", d])
		return sprintf("%-12s %8d %8d %+8d", d, n["parent", d], n["now", d], n["now", d] - n["parent", d])
	}
	END {
		if (rev == "") printf "%-12s %8s\n", "dir", "lines"
		else printf "%-12s %8s %8s %8s\n", "dir", substr(rev, 1, 8), "now", "net"
		for (d in dirs) print row(d) | "sort"
		close("sort")
		print row("total")
	}
'
