#!/bin/sh
# Run the attack-evaluation benchmarks and archive their numbers — chains
# evaluated per second (the ROP builder compiling payload templates against
# a full-knowledge pool), hijacked fires per second (the full stack-smash
# round trip), and campaign cells per second (the whole canonical
# adversary-in-the-loop campaign on one worker: leak oracle, gadget pools,
# re-randomization epochs, chain builds and fires) — as JSON in
# BENCH_attack.json. These bound how large an adversary-in-the-loop study
# the simulator can host; refactors of the chain builder, the oracle, or the
# fire path are checked against a previously recorded file.
#
# Usage: scripts/bench_attack.sh [output.json]
set -eu

GO="${GO:-go}"
OUT="${1:-BENCH_attack.json}"
COUNT="${BENCH_COUNT:-3}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

echo "== bench (benchtime 100x, count $COUNT)"
"$GO" test ./internal/attack -run '^$' -bench 'BenchmarkChainBuild|BenchmarkFire' \
    -benchtime 100x -count "$COUNT" | tee "$TMP"
# One campaign takes seconds; time it once per repetition.
echo "== bench campaign (benchtime 1x, count $COUNT)"
"$GO" test ./internal/attack -run '^$' -bench 'BenchmarkCampaign' \
    -benchtime 1x -count "$COUNT" | tee -a "$TMP"

# Benchmark lines look like:
#   BenchmarkChainBuild-8  100  41000 ns/op  73000 chains/s
#   BenchmarkFire-8        100  900000 ns/op  1100 fires/s
#   BenchmarkCampaign-8    1    3000000000 ns/op  9.0 cells/s
# Average each benchmark's custom metric over the -count repetitions.
awk -v out="$OUT" '
/^BenchmarkChainBuild/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "chains/s") { chains += $i; cn++ }
}
/^BenchmarkFire/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "fires/s") { fires += $i; fn++ }
}
/^BenchmarkCampaign/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "cells/s") { cells += $i; kn++ }
}
END {
    if (!cn || !fn || !kn) {
        print "bench_attack: missing benchmark output" > "/dev/stderr"
        exit 1
    }
    printf "{\n" > out
    printf "  \"benchmarks\": \"BenchmarkChainBuild, BenchmarkFire, BenchmarkCampaign\",\n" >> out
    printf "  \"config\": \"chains/fires: sjeng, baseline full-knowledge pool, benchtime 100x; campaign: canonical config, 1 worker, benchtime 1x\",\n" >> out
    printf "  \"count\": %d,\n", cn >> out
    printf "  \"chains_per_sec\": %.1f,\n", chains / cn >> out
    printf "  \"fires_per_sec\": %.1f,\n", fires / fn >> out
    printf "  \"campaign_cells_per_sec\": %.2f\n", cells / kn >> out
    printf "}\n" >> out
}
' "$TMP"

echo "== wrote $OUT"
cat "$OUT"
