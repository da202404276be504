#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given flags:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build files
# and the binary all live in .bench_build/ under the root, so a run reads and
# writes nothing outside the checkout. The harness is its own module
# (bench/go.mod) that builds against the repository's packages through a
# replace directive and needs no download (GOPROXY=off); without the rest of
# the repository the build fails and the script exits nonzero.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
