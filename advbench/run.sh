#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash advbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it writes (Go build cache,
# binary, spans, the daemon's data directory) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
src="$root/advbench"
out="$root/.bench_build/advbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's own settings and telemetry
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/advbench" .) >&2
exec "$out/advbench" "$@"
