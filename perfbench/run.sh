#!/usr/bin/env bash
# Builds the benchmark into .bench_build (Go build cache, module cache,
# temporary files and the go command's config and telemetry directory
# included, so nothing is written outside the checkout) and runs it from
# the checkout root with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload paper-p8 --seed 1 --seconds 40 --trace 0
#
# The benchmark is a module of its own that builds the repository's
# packages from source through a replace directive; without them the
# build fails and the script exits nonzero before printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
