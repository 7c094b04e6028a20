#!/usr/bin/env bash
# Builds perfbench and schedulerd from this checkout's sources into
# .bench_build/ and runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-static --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and tool state (XDG_CONFIG_HOME)
# all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off

go build -C perfbench -o "$out/perfbench" .
go build -C perfbench -o "$out/schedulerd" repro/cmd/schedulerd
exec "$out/perfbench" --schedulerd "$out/schedulerd" "$@"
