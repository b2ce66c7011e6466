#!/bin/sh
# Run the pipeline's acceptance benchmark (the fig13+fig14 DRC-size sweep)
# and archive its numbers — ns/op and ns per simulated instruction — as
# JSON in BENCH_pipeline.json. Refactors of the simulate hot path are
# checked against a previously recorded file: the ns/instr of the execute
# variant must stay within a few percent.
#
# Usage: scripts/bench_pipeline.sh [output.json]
set -eu

GO="${GO:-go}"
OUT="${1:-BENCH_pipeline.json}"
COUNT="${BENCH_COUNT:-3}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

echo "== bench (benchtime 3x, count $COUNT)"
"$GO" test ./internal/harness -run '^$' -bench 'BenchmarkDRCSweep' \
    -benchtime 3x -count "$COUNT" | tee "$TMP"

# Benchmark lines look like:
#   BenchmarkDRCSweep/execute-8  3  172000000 ns/op  1.43 ns/instr
# Average each variant's ns/op and ns/instr over the -count repetitions.
awk -v out="$OUT" '
/^BenchmarkDRCSweep\// {
    split($1, parts, "/"); sub(/-[0-9]+$/, "", parts[2])
    v = parts[2]
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")    { nsop[v] += $i;    n[v]++ }
        if ($(i+1) == "ns/instr") { nsinstr[v] += $i }
    }
}
END {
    if (!n["execute"]) {
        print "bench_pipeline: missing benchmark output" > "/dev/stderr"
        exit 1
    }
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkDRCSweep\",\n" >> out
    printf "  \"config\": \"fig13+fig14 DRC sweep, workloads h264ref+lbm, 120000 instructions, benchtime 3x\",\n" >> out
    printf "  \"count\": %d,\n", n["execute"] >> out
    printf "  \"execute\": {\"ns_per_op\": %.0f, \"ns_per_instr\": %.4f}\n",
        nsop["execute"] / n["execute"], nsinstr["execute"] / n["execute"] >> out
    printf "}\n" >> out
}
' "$TMP"

echo "== wrote $OUT"
cat "$OUT"
