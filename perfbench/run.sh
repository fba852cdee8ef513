#!/usr/bin/env bash
# Builds the ltsp benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <compile|repro|serve-hit|serve-mixed> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Every file the build and the run
# write (Go build cache, temporary files, the artifact store, span dumps)
# lands under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
