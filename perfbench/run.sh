#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload short-live --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, and the traced run's span file live
# under .bench_build/ at the repository root, so nothing is read or
# written outside the checkout. Without the repository around it (no
# ../go.mod) the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans.json" "$@"
