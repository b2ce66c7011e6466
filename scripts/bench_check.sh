#!/bin/sh
# Regression guard for the simulate hot path: run the fig13+fig14 DRC-sweep
# acceptance benchmark fresh and compare its ns-per-simulated-instruction
# against the budget pinned in BENCH_pipeline.json.
#
#   - A run more than BENCH_TOLERANCE percent (default 15) slower than the
#     pinned budget fails the script (and therefore CI).
#   - A run meaningfully faster than its budget (beyond the noise
#     margin) rewrites BENCH_pipeline.json in place, so improvements
#     ratchet the budget down instead of leaving slack for regressions to
#     hide in. Commit the updated file with the change that earned it.
#
# Usage: scripts/bench_check.sh [baseline.json]
set -eu

GO="${GO:-go}"
BASE="${1:-BENCH_pipeline.json}"
TOL="${BENCH_TOLERANCE:-15}" # percent regression budget
IMPROVE="${BENCH_IMPROVE_MARGIN:-3}" # percent faster before re-pinning
COUNT="${BENCH_COUNT:-3}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

if [ ! -f "$BASE" ]; then
    echo "bench_check: no baseline $BASE — record one with scripts/bench_pipeline.sh" >&2
    exit 1
fi

echo "== bench_check (tolerance ${TOL}%, baseline $BASE)"
"$GO" test ./internal/harness -run '^$' -bench 'BenchmarkDRCSweep' \
    -benchtime 3x -count "$COUNT" | tee "$TMP"

awk -v base="$BASE" -v tol="$TOL" -v improve="$IMPROVE" '
# Fresh numbers: average ns/op and ns/instr per variant over -count reps.
FILENAME != base && /^BenchmarkDRCSweep\// {
    split($1, parts, "/"); sub(/-[0-9]+$/, "", parts[2])
    v = parts[2]
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")    { nsop[v] += $i; n[v]++ }
        if ($(i+1) == "ns/instr") { nsinstr[v] += $i }
    }
}
# Pinned budgets out of the baseline JSON.
FILENAME == base && /"execute"/ { pin["execute"] = pinned($0) }
function pinned(line,    s) {
    s = line
    sub(/.*"ns_per_instr": */, "", s); sub(/[^0-9.].*/, "", s)
    return s + 0
}
END {
    if (!(pin["execute"] > 0)) {
        print "bench_check: could not parse pinned ns_per_instr from " base > "/dev/stderr"
        exit 1
    }
    status = 0
    improved = 0
    for (v in pin) {
        if (!n[v]) {
            printf "bench_check: no fresh output for variant %s\n", v > "/dev/stderr"
            exit 1
        }
        fresh[v] = nsinstr[v] / n[v]
        budget = pin[v] * (1 + tol / 100)
        delta = (fresh[v] / pin[v] - 1) * 100
        printf "== %-8s fresh %8.4f ns/instr  pinned %8.4f  (%+.1f%%, budget %.4f)\n",
            v, fresh[v], pin[v], delta, budget
        if (fresh[v] > budget) {
            printf "bench_check: FAIL: %s ns/instr %.4f exceeds budget %.4f (pinned %.4f +%d%%)\n",
                v, fresh[v], budget, pin[v], tol > "/dev/stderr"
            status = 1
        } else if (fresh[v] < pin[v] * (1 - improve / 100)) {
            improved = 1
        }
    }
    if (status == 0 && improved) {
        printf "{\n" > base
        printf "  \"benchmark\": \"BenchmarkDRCSweep\",\n" >> base
        printf "  \"config\": \"fig13+fig14 DRC sweep, workloads h264ref+lbm, 120000 instructions, benchtime 3x\",\n" >> base
        printf "  \"count\": %d,\n", n["execute"] >> base
        printf "  \"execute\": {\"ns_per_op\": %.0f, \"ns_per_instr\": %.4f}\n",
            nsop["execute"] / n["execute"], fresh["execute"] >> base
        printf "}\n" >> base
        printf "== improvement: re-pinned %s\n", base
    }
    exit status
}
' "$BASE" "$TMP"

echo "== bench_check OK"
