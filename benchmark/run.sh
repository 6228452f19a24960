#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload lowchurn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under benchmark/ (.build:
# binary and the go command's caches and counters; out: Chrome traces of
# traced runs).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOCACHE="$PWD/.build/gocache" GOPATH="$PWD/.build/gopath" XDG_CONFIG_HOME="$PWD/.build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -o .build/shoal-benchmark .
exec .build/shoal-benchmark "$@"
