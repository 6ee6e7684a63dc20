#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the go tool writes (build
# cache, module cache, its own telemetry) is kept inside .bench_build/,
# so a run reads and writes only inside its checkout. Without the
# repository's own source beside it the build fails and this exits
# non-zero before anything is run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/hbhbench" .)
cd "$root"
exec "$build/hbhbench" "$@"
