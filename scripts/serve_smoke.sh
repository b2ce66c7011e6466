#!/bin/sh
# Smoke test for vcfrd: boot the service once, hit every endpoint, prove a
# run job's stored envelope is byte-identical to vcfrsim -stats-json, prove
# a timing-only repeat reuses the prepared app, prove each sweep and
# campaign job's stored envelope is byte-identical to
# `experiments -stats-json` with the same parameters,
# check the fault.* and attack.* counters on /metrics against the
# campaigns' own totals, and prove SIGTERM drains cleanly. Exits non-zero
# on the first failure.
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
"$GO" build -o "$TMP/experiments" ./cmd/experiments
"$GO" build -o "$TMP/vcfrsim" ./cmd/vcfrsim

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

# job_result NAME BODY -> submits BODY to POST /v1/jobs, polls it to
# completion, and leaves the stored envelope at /v1/jobs/{id}/result in
# $TMP/NAME.json.
job_result() {
    job="$(curl -fsS -d "$2" "http://$ADDR/v1/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
    [ -n "$job" ] || { echo "/v1/jobs returned no $1 job id"; return 1; }
    poll_job "$ADDR" "$job"
    curl -fsS "http://$ADDR/v1/jobs/$job/result" >"$TMP/$1.json"
}

# job_matches_cli NAME BODY ARGS... -> runs job_result NAME BODY and
# compares the envelope byte for byte with `experiments ARGS -stats-json`,
# leaving the CLI's in $TMP/NAME-cli.json.
job_matches_cli() {
    name="$1"; body="$2"; shift 2
    job_result "$name" "$body"
    "$TMP/experiments" "$@" -stats-json >"$TMP/$name-cli.json"
    cmp "$TMP/$name.json" "$TMP/$name-cli.json"
}

echo "== run job is byte-identical to vcfrsim -stats-json"
job_result run '{"kind": "run", "workload": "h264ref", "mode": "all", "instructions": 50000}'
"$TMP/vcfrsim" -workload h264ref -mode all -instructions 50000 -stats-json >"$TMP/run-cli.json"
cmp "$TMP/run.json" "$TMP/run-cli.json"

echo "== timing-only repeat reuses the prepared app"
job_result drc64 '{"kind": "run", "workload": "h264ref", "mode": "all", "instructions": 50000, "drc": 64}'
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
HITS="$(sed -n 's/^vcfrd_app_memo_hits_total //p' "$TMP/metrics.txt")"
[ "${HITS:-0}" -ge 1 ] || { echo "no app memo hit (hits=$HITS)"; exit 1; }

echo "== sweep via POST /v1/jobs is byte-identical to experiments -stats-json"
job_matches_cli sweep '{"kind": "sweep", "workloads": ["lbm"], "instructions": 50000}' \
    -workloads lbm -instructions 50000

echo "== workloads catalog"
curl -fsS "http://$ADDR/v1/workloads" | grep -q '"name"'

echo "== fault campaign is byte-identical to experiments -mode faults"
job_matches_cli faults '{"kind": "faults", "workloads": ["bzip2"], "mode": "all", "injections": 30, "instructions": 10000}' \
    -mode faults -workloads bzip2 -injections 30 -instructions 10000

echo "== attack campaign is byte-identical to experiments -mode attacks"
job_matches_cli attacks '{"kind": "attacks", "workloads": ["bzip2"], "mode": "all"}' \
    -mode attacks -workloads bzip2

echo "== multicore campaign is byte-identical to experiments -mode multicore"
job_matches_cli multicore '{"kind": "multicore", "workloads": ["bzip2", "sjeng"], "cells": ["1c2t"], "quantum": 2000, "instructions": 10000}' \
    -mode multicore -workloads bzip2,sjeng -cells 1c2t -quantum 2000 -instructions 10000

echo "== campaign counters reached /metrics"
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
# total FILE KEY -> the KEY figure of the envelope's totals block.
total() { sed -n '/"totals"/,/}/{s/.*"'"$2"'": *\([0-9]*\).*/\1/p;}' "$1" | head -1; }
CAMPAIGNS="$(sed -n 's/^vcfrd_fault_campaigns_total //p' "$TMP/metrics.txt")"
[ "${CAMPAIGNS:-0}" -ge 1 ] || { echo "no fault campaign counted (campaigns=$CAMPAIGNS)"; exit 1; }
CAMPAIGNS="$(sed -n 's/^vcfrd_attack_campaigns_total //p' "$TMP/metrics.txt")"
[ "${CAMPAIGNS:-0}" -ge 1 ] || { echo "no attack campaign counted (campaigns=$CAMPAIGNS)"; exit 1; }
# Each campaign's own totals are the reference: the service merges every
# finished campaign's Stats into the registry, and this instance ran one
# campaign of each, so each counter must match its envelope's totals.
WANT="$(total "$TMP/faults-cli.json" injected)"
INJECTED="$(sed -n 's/^vcfrd_fault_injected_total //p' "$TMP/metrics.txt")"
[ -n "$WANT" ] || { echo "could not find fault campaign totals"; exit 1; }
[ "${INJECTED:-0}" = "$WANT" ] || { echo "injected counter $INJECTED != campaign total $WANT"; exit 1; }
WANT="$(total "$TMP/attacks-cli.json" leaks)"
LEAKS="$(sed -n 's/^vcfrd_attack_leaks_total //p' "$TMP/metrics.txt")"
[ -n "$WANT" ] || { echo "could not find attack campaign totals"; exit 1; }
[ "${LEAKS:-0}" = "$WANT" ] || { echo "leaks counter $LEAKS != campaign total $WANT"; exit 1; }

echo "== SIGTERM drains"
kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "vcfrd: drained, exiting" "$TMP/vcfrd.log" || { echo "no clean drain:"; cat "$TMP/vcfrd.log"; exit 1; }

echo "PASS"
