#!/usr/bin/env bash
# Builds the daemon benchmark and the rimserved binary (whose -h output the
# drift guard reads) from the checkout it is run in, then runs the
# benchmark. Run from the repository root:
#
#	bash daemonbench/run.sh --workload fleet-pair-walk --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/daemonbench" && go build -o "$out/daemonbench" .) >&2
go build -o "$out/rimserved" ./cmd/rimserved >&2
exec "$out/daemonbench" --rimserved "$out/rimserved" "$@"
