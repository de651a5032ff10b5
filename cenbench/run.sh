#!/usr/bin/env bash
# Builds cenbench from this checkout and runs it; flags pass through:
#
#   bash cenbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary, scratch stores and trace dumps.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd cenbench && go build -buildvcs=false -o "$out/cenbench" .)
exec "$out/cenbench" -out "$out" "$@"
