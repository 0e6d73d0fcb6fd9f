#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root; every argument is passed on to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload trial-pam --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go tool's own config and
# telemetry, the binary and the traced runs' span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The build fails outside a repository checkout (perfbench's go.mod
# replaces the taskprune module with the parent directory), so the
# benchmark exits non-zero there without printing a result.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
