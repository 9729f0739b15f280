#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. Run from the
# repository root:
#
#   bash hostbench/run.sh --workload fleet-chaos|paper|patch --seed N --seconds S --trace 0|1
#
# Everything the Go toolchain writes (build cache, temporary files,
# the binary, traced-run artifacts) stays under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/fleet || ! -f hostbench/go.mod ]]; then
	echo "hostbench: run from the repository root; go.mod, internal/ or hostbench/ is missing here" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd hostbench && go build -o "$out/hostbench.bin" .)
exec "$out/hostbench.bin" "$@"
