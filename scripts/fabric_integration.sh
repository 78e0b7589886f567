#!/bin/sh
# Multi-process fabric integration: the distributed-identity contract
# checked across real OS processes, not goroutines. One `geoscan
# -study lumscan` coordinator and three scanworker processes — one of
# which is killed by chaos injection mid-shard so its lease expires and
# the shard is re-executed — must write a journal byte-identical to
# that of a single-process run of the same scan.
#
# Run via `make fabric-test`. Needs only the go toolchain and a POSIX
# shell; everything happens under a temp directory that is cleaned up
# on exit.
set -eu

here=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$here"

work=$(mktemp -d "${TMPDIR:-/tmp}/fabric-integration.XXXXXX")
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "fabric-integration: building geoscan + scanworker"
go build -o "$work/geoscan" ./cmd/geoscan
go build -o "$work/scanworker" ./cmd/scanworker

# The scan: the full safe population at a small scale, multi-country,
# with chaos injected so the retry/outage paths journal too. Identical
# flags for both runs.
scan_flags="-domains all -countries US,DE,IR,SY,BR -samples 2 -seed 11 -scale 0.02 -faults flaky50 -faultseed 3"

echo "fabric-integration: single-process reference run"
"$work/geoscan" -study lumscan $scan_flags -store "$work/ref" >"$work/ref.out" 2>"$work/ref.err" \
    || { echo "single-process run failed:"; cat "$work/ref.err"; exit 1; }

echo "fabric-integration: coordinator + 3 workers (one chaos-killed)"
# The coordinator records the run's merged wide-event trace: its own
# driver events plus every worker's unit events, shipped upstream in
# shard completions and merged in canonical order. The file survives
# the temp-dir cleanup as the run's artifact (CI uploads it).
trace_artifact="${FABRIC_TRACE_ARTIFACT:-$here/fabric-trace.json}"
"$work/geoscan" -study lumscan $scan_flags -store "$work/fab" -trace "$trace_artifact" \
    -fabric 127.0.0.1:0 -fabric-ready-file "$work/ready" \
    >"$work/fab.out" 2>"$work/fab.err" &
coord=$!
pids="$coord"

# The ready file holds the coordinator's bound address once it listens.
i=0
while [ ! -s "$work/ready" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "coordinator never wrote its ready file:"; cat "$work/fab.err"; exit 1
    fi
    sleep 0.1
done
addr=$(cat "$work/ready")

# Worker 1 is the victim: chaos kills it before it reports its first
# executed unit, forfeiting the lease. Workers 2 and 3 finish the study.
"$work/scanworker" -coordinator "http://$addr" -name victim -kill-after 1 -kill-seed 7 \
    >"$work/w1.out" 2>&1 &
victim=$!
pids="$pids $victim"
set +e
wait "$victim"
vstatus=$?
set -e
if [ "$vstatus" -ne 3 ]; then
    echo "victim worker exited $vstatus, want 3 (chaos kill):"; cat "$work/w1.out"; exit 1
fi
echo "fabric-integration: victim died as scripted (exit 3); survivors take over"

"$work/scanworker" -coordinator "http://$addr" -name w2 >"$work/w2.out" 2>&1 &
w2=$!
"$work/scanworker" -coordinator "http://$addr" -name w3 >"$work/w3.out" 2>&1 &
w3=$!
pids="$pids $w2 $w3"

wait "$coord"
wait "$w2"
wait "$w3"
pids=""

echo "fabric-integration: comparing journals"
for f in "$work/ref"/*; do
    name=$(basename "$f")
    if ! cmp -s "$f" "$work/fab/$name"; then
        echo "FAIL: journal file $name differs between single-process and fabric runs"
        exit 1
    fi
done
for f in "$work/fab"/*; do
    name=$(basename "$f")
    [ -e "$work/ref/$name" ] || { echo "FAIL: fabric journal has extra file $name"; exit 1; }
done

# The scan output itself (coverage table on stdout) must match too.
if ! cmp -s "$work/ref.out" "$work/fab.out"; then
    echo "FAIL: scan stdout differs between single-process and fabric runs"
    diff "$work/ref.out" "$work/fab.out" | head -20 || true
    exit 1
fi

# The merged trace must exist and be Chrome trace-event JSON with
# worker-executed unit events in it (the "session.open" spans run on
# workers, so their presence proves events crossed the wire).
if [ ! -s "$trace_artifact" ]; then
    echo "FAIL: coordinator wrote no trace artifact at $trace_artifact"
    exit 1
fi
if ! grep -q '"traceEvents"' "$trace_artifact"; then
    echo "FAIL: trace artifact is not Chrome trace-event JSON"
    head -5 "$trace_artifact"
    exit 1
fi
if ! grep -q '"session.open"' "$trace_artifact"; then
    echo "FAIL: merged trace carries no worker unit events"
    exit 1
fi
echo "fabric-integration: merged trace artifact at $trace_artifact"

echo "fabric-integration: PASS — fabric journal and output byte-identical to single-process"
