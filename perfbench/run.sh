#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ in that root, so the benchmark
# reads and writes nothing outside the checkout (apart from the Go
# toolchain itself). The build needs the repository's own go.mod one level
# up; without it the build fails and nothing is printed on stdout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"

# HOME and XDG_CONFIG_HOME keep the go command's own state (telemetry) in
# the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
