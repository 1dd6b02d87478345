#!/usr/bin/env bash
# Builds quantiled and the qperf generator from the working tree, then runs
# one benchmark pass. Run from the repository root:
#
#	bash qperf/run.sh --workload flat --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the server logs stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/quantiled" || ! -f "$root/qperf/go.mod" ]]; then
	echo "qperf: run from the repository root (needs go.mod, cmd/quantiled and qperf/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/quantiled" ./cmd/quantiled
(cd qperf && go build -o "$out/qperf" .)
exec "$out/qperf" -quantiled "$out/quantiled" -workdir "$out" "$@"
