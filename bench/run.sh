#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from
# the checkout and runs it, keeping every file the build and the run write
# inside the checkout (.bench_build/). Arguments go to the benchmark:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its local telemetry counters
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
# bench/ is a module of its own, so no gate of the root module (go vet/test
# ./..., ci.sh) sees it. This is its gate: whenever its sources or
# BENCHMARK.json are newer than the last pass, vet it and run its unit tests
# (seconds) before anything is measured; a failure ends the run, no result.
checked="$build/checked"
if [ ! -e "$checked" ] || [ -n "$(find . ../BENCHMARK.json -newer "$checked" \( -name '*.go' -o -name BENCHMARK.json \) -print -quit)" ]; then
  go vet ./... >&2
  go test -count=1 ./... >&2
  touch "$checked"
fi
go build -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
