#!/usr/bin/env bash
# The entry BENCHMARK.json names. Builds cmd/vitalperf from the checkout it
# is run from and hands it the harness's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>). Everything
# the build writes — the binary, the go build cache, the go tool's own
# state — stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR where the harness sets it, else .bench_build).
set -euo pipefail

cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$build/vitalperf" ./cmd/vitalperf
exec "$build/vitalperf" "$@"
