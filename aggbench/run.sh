#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash aggbench/run.sh --workload round-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes —
# build cache, temporary files, the binary — stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/aggbench/go.mod" ]]; then
	echo "aggbench: run from the repository root; no Go module found in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/aggbench" && go build -o "$out/aggbench" .)
exec "$out/aggbench" "$@"
