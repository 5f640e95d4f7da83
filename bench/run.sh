#!/usr/bin/env bash
# Builds the benchmark and the distmatchd server from source into
# .bench_build/ at the repository root, then runs the benchmark there with
# the given arguments:
#
#   bash bench/run.sh --workload serve-write --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh -compare before.jsonl after.jsonl
#
# The Go build cache and every temporary file stay under .bench_build/, and
# no module is fetched: the only dependency is the parent module, resolved
# through bench/go.mod's replace directive.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/bench" . && go build -o "$out/distmatchd" distmatch/cmd/distmatchd)

cd "$root"
exec "$out/bench" -server "$out/distmatchd" "$@"
