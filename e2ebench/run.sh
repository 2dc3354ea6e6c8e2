#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload rolling --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the traced runs' Chrome traces all stay under ./.bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a netupdate checkout" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --trace-dir "$out/traces" "$@"
