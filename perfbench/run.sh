#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, the traced run's
# spans and profiles) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go/cache" "$out/go/path" "$out/go/config" "$out/go/tmp"
export GOCACHE=$out/go/cache GOPATH=$out/go/path XDG_CONFIG_HOME=$out/go/config GOTMPDIR=$out/go/tmp
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-trace" "$@"
