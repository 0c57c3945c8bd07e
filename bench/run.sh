#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source and runs it with the arguments given.
# Everything the Go toolchain writes — build cache, module cache,
# temporary files, telemetry counters — is pointed at .bench_build in the
# checkout, so a run reads and writes nothing outside it. In a directory
# without the repository's sources the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/lamassu-bench" .)
cd "$root"
exec "$build/lamassu-bench" "$@"
