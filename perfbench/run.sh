#!/usr/bin/env bash
# Build the benchmark from the checkout's sources and run it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build/ in the current directory, and no module is
# fetched: the benchmark is a module of its own that imports the repository
# through a local replace directive.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "perfbench: run from the repository root; the program's sources are missing here" >&2
  exit 1
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOFLAGS="-mod=mod -buildvcs=false"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
