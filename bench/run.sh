#!/usr/bin/env bash
# Entry point of the benchmark: builds the harness from this directory's
# own module and runs it, from the caller's directory, with the arguments
# given. Everything the build and the run leave behind stays under
# bench/out, build cache and Go path included, so a run reads and writes
# only inside its checkout. The harness builds cmd/acqserved itself, with
# the same environment.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out/bin"
export GOCACHE="$here/out/gocache" GOPATH="$here/out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$here/out/bin/acqperf" .
exec "$here/out/bin/acqperf" "$@"
