#!/usr/bin/env bash
# Builds the QPIAD benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash qpiadbench/run.sh --workload select-cpu --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary, answer
# digests and trace files all live under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/qpiadbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/qpiadbench" .)
exec "$out/qpiadbench" "$@"
