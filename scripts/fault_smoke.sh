#!/bin/sh
# Smoke test for the fault-injection surface: boot vcfrd, run a small
# campaign through POST /v1/jobs, poll the job to completion, and prove
# the stored envelope at /v1/jobs/{id}/result is byte-identical to
# `faultsim -json` with the same parameters. Also checks the fault.*
# counters reached /metrics and that SIGTERM still drains cleanly.
# Exits non-zero on the first failure.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
trap 'status=$?; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"; exit $status' EXIT INT TERM

echo "== build"
"$GO" build -o "$TMP/vcfrd" ./cmd/vcfrd

echo "== start"
"$TMP/vcfrd" -addr 127.0.0.1:0 2>"$TMP/vcfrd.log" &
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
echo "   $ADDR"

echo "== submit campaign"
REQ='{"kind": "faults", "workloads": ["bzip2"], "mode": "all", "injections": 30, "instructions": 10000}'
JOB="$(curl -fsS -d "$REQ" "http://$ADDR/v1/jobs" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "faults returned no job id"; exit 1; }
echo "   $JOB"

echo "== poll to completion"
STATE=""
for _ in $(seq 1 600); do
    STATE="$(curl -fsS "http://$ADDR/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)"
    [ "$STATE" = "done" ] && break
    [ "$STATE" = "failed" ] && { echo "campaign job failed"; curl -fsS "http://$ADDR/v1/jobs/$JOB"; exit 1; }
    sleep 0.1
done
[ "$STATE" = "done" ] || { echo "campaign job stuck in '$STATE'"; exit 1; }

echo "== result is byte-identical to faultsim -json"
curl -fsS "http://$ADDR/v1/jobs/$JOB/result" >"$TMP/service.json"
"$GO" run ./cmd/faultsim -workloads bzip2 -mode all -injections 30 \
    -instructions 10000 -json >"$TMP/cli.json"
cmp "$TMP/service.json" "$TMP/cli.json"

echo "== fault counters reached /metrics"
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
CAMPAIGNS="$(sed -n 's/^vcfrd_fault_campaigns_total //p' "$TMP/metrics.txt")"
[ "${CAMPAIGNS:-0}" -ge 1 ] || { echo "no campaign counted (campaigns=$CAMPAIGNS)"; exit 1; }
# The campaign's own totals are the reference: the service merges each
# finished campaign's Stats into the registry, so the gauge must match
# the "injected" figure in the envelope's totals block.
WANT="$(sed -n '/"totals"/,/}/{s/.*"injected": *\([0-9]*\).*/\1/p;}' "$TMP/cli.json" | head -1)"
INJECTED="$(sed -n 's/^vcfrd_fault_injected_total //p' "$TMP/metrics.txt")"
[ -n "$WANT" ] || { echo "could not find campaign totals in cli.json"; exit 1; }
[ "${INJECTED:-0}" = "$WANT" ] || { echo "injected counter $INJECTED != campaign total $WANT"; exit 1; }

echo "== SIGTERM drains"
kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "vcfrd: drained, exiting" "$TMP/vcfrd.log" || { echo "no clean drain:"; cat "$TMP/vcfrd.log"; exit 1; }

echo "PASS"
