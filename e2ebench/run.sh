#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through:
#
#   bash e2ebench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, the stores
# of a run (deleted when it ends) and traced runs' span files all live in
# .bench_build/ under the current directory.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

# Keep everything the go command writes (build cache, module cache, its
# local telemetry under the config directory) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -dir "$out" "$@"
