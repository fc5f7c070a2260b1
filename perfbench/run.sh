#!/usr/bin/env bash
# Builds murphyd and the benchmark driver from the checkout's sources into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload triage --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, Go cache and scratch
# file stays under .bench_build/ so nothing outside the checkout is written.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/murphyd" ]]; then
	echo "perfbench: run from the repository root (no murphy sources in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/murphyd" ./cmd/murphyd >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -murphyd "$build/murphyd" -workdir "$build/run" "$@"
