#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload mesh4-sp --seed 42 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files go under $CARGO_TARGET_DIR (default .bench_build), so nothing
# is written outside the checkout. It exits non-zero, printing no result,
# when the simulator's sources are missing.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

(
	cd "$(dirname "${BASH_SOURCE[0]}")"
	GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
		XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -out "$out/perfbench-traces" "$@"
