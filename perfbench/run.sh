#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload flood_fig1 --seed 1 --seconds 38 --trace 0
#
# Every build artifact, cache, Go config write and report stays under
# .bench_build/ in the checkout. The build fails (non-zero exit, no result
# line) when the simulator module is not beside the benchmark.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0 \
	GOFLAGS="-mod=readonly -buildvcs=false"
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$PPROF_TMPDIR"

# The report's machine block names the revision when the checkout is a
# git work tree of its own.
PERFBENCH_GIT_REV="unknown (not a git checkout)"
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	PERFBENCH_GIT_REV=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD 2>/dev/null || PERFBENCH_GIT_REV="$PERFBENCH_GIT_REV+dirty"
fi
export PERFBENCH_GIT_REV

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/out" "$@"
