#!/usr/bin/env bash
# Builds the darksim benchmark from this checkout and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "$out/perfbench" .)

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT=$commit
export PERFBENCH_SOURCE=$(find go.mod internal cmd -type f -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
