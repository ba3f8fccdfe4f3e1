#!/usr/bin/env bash
# Runs one command in a process group of its own and fails if anything
# it started outlives it:
#
#   bash scripts/rungroup.sh <command> [args...]
#
# The command runs under setsid, so it and every process it starts share
# a new process group. When it ends, any process still in that group is
# printed (pid and command line) and the group is stopped, and the script
# exits 1; otherwise it exits with the command's status. A benchmark run
# is one process that starts no child, so a survivor is something the
# change under test started and did not stop (scripts/benchpairs.sh and
# `make bench-repo-smoke` run every benchmark run through this).
set -u
if [ $# -eq 0 ]; then
	sed -n '4,5p' "$0" >&2
	exit 2
fi

# In a script, a background job is not a group leader, so setsid makes
# the group in place and its pid is the group's id.
setsid "$@" &
pgid=$!
trap 'kill -KILL -- "-$pgid" 2>/dev/null' INT TERM
wait "$pgid"
status=$?
# Alive: in the group and not a zombie waiting to be reaped.
left=$(ps -e -o pid=,pgid=,stat=,args= | awk -v g="$pgid" '$2 == g && $3 !~ /^Z/ { pid = $1; $1 = $2 = $3 = ""; sub(/^ +/, ""); print pid, $0 }')
if [ -n "$left" ]; then
	echo "rungroup: still running after '$*' ended (pid and command line):" >&2
	echo "$left" >&2
	kill -TERM -- "-$pgid" 2>/dev/null
	sleep 1
	kill -KILL -- "-$pgid" 2>/dev/null
	exit 1
fi
exit "$status"
