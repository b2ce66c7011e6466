#!/bin/sh
# Service-level load benchmark: fire a mixed stream of run/sweep/faults/
# attacks jobs (cmd/vcfrload) at one vcfrd and archive throughput and
# latency percentiles (p50/p90/p99/p999) as BENCH_service.json — the
# service's own overhead, independent of simulator speed.
#
# Usage: scripts/bench_service.sh [output.json]
# Env:   BENCH_REQUESTS (default 400), BENCH_CONCURRENCY (default 16)
set -eu

GO="${GO:-go}"
OUT="${1:-BENCH_service.json}"
N="${BENCH_REQUESTS:-400}"
C="${BENCH_CONCURRENCY:-16}"
TMP="$(mktemp -d)"
trap 'status=$?; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"; exit $status' EXIT INT TERM

echo "== build"
"$GO" build -o "$TMP/vcfrd" ./cmd/vcfrd
"$GO" build -o "$TMP/vcfrload" ./cmd/vcfrload

echo "== start"
"$TMP/vcfrd" -addr 127.0.0.1:0 -queue 256 >/dev/null 2>"$TMP/vcfrd.log" &
PID=$!
# The daemon prints "vcfrd: listening on ADDR (...)" once the port is bound.
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^vcfrd: listening on \([^ ]*\) .*/\1/p' "$TMP/vcfrd.log")"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "vcfrd died:"; cat "$TMP/vcfrd.log"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "never saw the listening line"; cat "$TMP/vcfrd.log"; exit 1; }

echo "== load: $N jobs x $C in flight"
"$TMP/vcfrload" -addr "http://$ADDR" -n "$N" -c "$C" >"$TMP/single.json"
kill -TERM "$PID"
wait "$PID"
PID=""

# Assemble the archive: the vcfrload report under the run's parameters.
{
    printf '{\n'
    printf '  "benchmark": "vcfrload mixed run/sweep/faults/attacks",\n'
    printf '  "requests": %s,\n' "$N"
    printf '  "concurrency": %s,\n' "$C"
    printf '  "single_process": '
    sed 's/^/  /' "$TMP/single.json" | sed '1s/^  //'
    printf '}\n'
} >"$OUT"

echo "== wrote $OUT"
cat "$OUT"
