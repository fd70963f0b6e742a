#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root.
#
#   bash bench/run.sh [flags]        # flags: see bench/README.md
#
# The Go build cache, temporary files and binaries live in .bench_build/ at
# the repository root, so a run reads and writes nothing outside the
# checkout and never reaches the network (GOPROXY=off, local toolchain).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f lrd.go || ! -d cmd/lrdserve ]]; then
	echo "bench: $root does not hold the lrd sources (go.mod, lrd.go, cmd/lrdserve)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/gopath" "$build/tmp" "$build/bin" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
