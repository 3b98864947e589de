#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash lfperf/run.sh --workload dense16_stream --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files, Go's own
# config and telemetry) stays under .bench_build in the current
# directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/lfperf" .)
exec "$out/lfperf" "$@"
