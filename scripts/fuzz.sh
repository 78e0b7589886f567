#!/bin/sh
# Run one fuzz target and fail it when fuzzing stalls.
#
#   sh scripts/fuzz.sh <package> <target> [go test flags...]
#
# `go test -fuzz` ends PASS at the end of -fuzztime however much it
# fuzzed. Its status line, printed every 3 s, counts the inputs its
# workers have reported back. A worker minimizing a new interesting
# input reports nothing until the minimization ends, and by default
# that may take 60 s (-fuzzminimizetime); while every worker
# minimizes, the count stands still and the budget goes unused. This
# script runs the target with the given flags, then fails it if two
# consecutive status lines carry the same exec count. The closing
# summary line repeats the count of the line before it, so it is not
# compared. GO names the go command (default: go).
set -eu

pkg=$1
target=$2
shift 2

log=$(mktemp "${TMPDIR:-/tmp}/fuzz.XXXXXX")
trap 'rm -f "$log" "$log.rc"' EXIT

{
	rc=0
	"${GO:-go}" test "$pkg" -run "^$target\$" -fuzz "^$target\$" "$@" 2>&1 || rc=$?
	echo "$rc" >"$log.rc"
} | tee "$log"
rc=$(cat "$log.rc")
[ "$rc" -eq 0 ] || exit "$rc"

awk -v target="$target" '
/^fuzz: elapsed: [0-9hms]+, execs: [0-9]+ / {
	n++
	at[n] = $3
	sub(/,$/, "", at[n])
	execs[n] = $5
}
END {
	# Line n is the closing summary.
	for (i = 2; i < n; i++) {
		if (execs[i] == execs[i-1]) {
			printf "FAIL: %s stalled: %s execs at %s and again at %s\n", target, execs[i], at[i-1], at[i]
			exit 1
		}
	}
}' "$log"
