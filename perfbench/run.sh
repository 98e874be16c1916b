#!/usr/bin/env bash
# Builds the clustercolor benchmark from source and runs it, forwarding every
# argument:
#
#   bash perfbench/run.sh --workload planted-high --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary and the Go build cache live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout. Without the library next to perfbench/ the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$here" && go build -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
