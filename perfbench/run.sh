#!/usr/bin/env bash
# Builds the programs the benchmark drives (experiments, vcfrd) and the
# benchmark itself from the checkout's sources, then runs it. All build
# and Go tool state stays under .bench_build in the repository root.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/experiments || ! -d cmd/vcfrd ]]; then
	echo "perfbench: run from the repository root; the program sources are missing here" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	TMPDIR="$out/tmp"
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/" ./cmd/experiments ./cmd/vcfrd >&2
(cd perfbench && go build -o "$out/bin/" .) >&2
# The traced run calls the program's internal packages directly; if it no
# longer builds, the end-to-end runs still work and only --trace 1 fails.
rm -f "$out/bin/traced"
(cd perfbench && go build -o "$out/bin/" ./traced) >&2 ||
	echo "perfbench: the traced run does not build; --trace 1 will fail" >&2

exec "$out/bin/perfbench" -bin "$out/bin" "$@"
