#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload gw-paper --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
		GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
