#!/bin/sh
# Smoke test for vcfrd: boot the service, hit every endpoint once, prove the
# simulate response is byte-identical to vcfrsim -stats-json, prove a
# timing-only repeat is served from the trace cache, exercise the unified
# /v1/jobs API, prove a kind=multicore job's envelope is byte-identical to
# clustersim -json, and prove SIGTERM drains cleanly. Exits non-zero on the
# first failure.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
trap 'status=$?; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"; exit $status' EXIT INT TERM

# poll_job ADDR JOBID -> waits until the job is done (fails the script on a
# failed or stuck job).
poll_job() {
    state=""
    for _ in $(seq 1 600); do
        state="$(curl -fsS "http://$1/v1/jobs/$2" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)"
        [ "$state" = "done" ] && return 0
        [ "$state" = "failed" ] && { echo "job $2 failed:"; curl -fsS "http://$1/v1/jobs/$2"; return 1; }
        sleep 0.1
    done
    echo "job $2 stuck in '$state'"
    return 1
}

echo "== build"
"$GO" build -o "$TMP/vcfrd" ./cmd/vcfrd

echo "== start"
"$TMP/vcfrd" -addr 127.0.0.1:0 >/dev/null 2>"$TMP/vcfrd.log" &
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

echo "== healthz"
[ "$(curl -fsS "http://$ADDR/healthz")" = "ok" ]

echo "== simulate is byte-identical to vcfrsim -stats-json"
REQ='{"workload": "h264ref", "mode": "all", "instructions": 50000}'
curl -fsS -d "$REQ" "http://$ADDR/v1/simulate" >"$TMP/service.json"
"$GO" run ./cmd/vcfrsim -workload h264ref -mode all -instructions 50000 -stats-json >"$TMP/cli.json"
cmp "$TMP/service.json" "$TMP/cli.json"

echo "== timing-only repeat replays from the trace cache"
curl -fsS -d '{"workload": "h264ref", "mode": "all", "instructions": 50000, "drc": 64}' \
    "http://$ADDR/v1/simulate" >/dev/null
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
HITS="$(sed -n 's/^vcfrd_trace_cache_hits_total //p' "$TMP/metrics.txt")"
[ "${HITS:-0}" -ge 1 ] || { echo "no trace cache hit (hits=$HITS)"; exit 1; }

echo "== unified submission via POST /v1/jobs"
JOB="$(curl -fsS -d '{"kind": "sweep", "workloads": ["lbm"], "instructions": 50000}' "http://$ADDR/v1/jobs" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || { echo "/v1/jobs returned no job id"; exit 1; }
poll_job "$ADDR" "$JOB"

echo "== job listing paginates"
curl -fsS "http://$ADDR/v1/jobs?state=done&limit=1" | grep -q '"jobs"'

echo "== workloads catalog"
curl -fsS "http://$ADDR/v1/workloads" | grep -q '"name"'

echo "== multicore campaign via POST /v1/jobs is byte-identical to clustersim -json"
MREQ='{"kind": "multicore", "workloads": ["bzip2", "sjeng"], "mode": "vcfr", "cells": ["1c2t"], "quantum": 2000, "instructions": 10000}'
MJOB="$(curl -fsS -d "$MREQ" "http://$ADDR/v1/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$MJOB" ] || { echo "/v1/jobs returned no multicore job id"; exit 1; }
poll_job "$ADDR" "$MJOB"
curl -fsS "http://$ADDR/v1/jobs/$MJOB/result" >"$TMP/multicore.json"
"$GO" run ./cmd/clustersim -workloads bzip2,sjeng -mode vcfr -cells 1c2t \
    -quantum 2000 -instructions 10000 -json >"$TMP/multicore-cli.json"
cmp "$TMP/multicore.json" "$TMP/multicore-cli.json"

echo "== SIGTERM drains"
kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "vcfrd: drained, exiting" "$TMP/vcfrd.log" || { echo "no clean drain:"; cat "$TMP/vcfrd.log"; exit 1; }

echo "PASS"
