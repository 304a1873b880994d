#!/usr/bin/env bash
# Builds the serving-stack benchmark from this checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload rpc-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/home"

# Keep the Go toolchain's caches, temp files and settings inside the
# checkout, and never reach for the network.
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" GOPATH="${build}/gopath"
export HOME="${build}/home" XDG_CONFIG_HOME="${build}/home/.config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

commit="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "${root}/perfbench" && go build -trimpath -ldflags "-X main.commit=${commit}" -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
