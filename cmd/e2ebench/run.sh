#!/usr/bin/env bash
# Builds the end-to-end sweep benchmark from source and runs it; all
# arguments are passed through (see main.go). Run it from the repository
# root. Everything the Go toolchain writes — build cache, temporary
# files, telemetry — stays under .bench_build in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/e2ebench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd cmd/e2ebench && go build -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" "$@"
