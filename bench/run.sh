#!/usr/bin/env bash
# Builds the benchmark harness and the dgserved daemon from this checkout,
# then runs the harness with the given flags. Run it from the repository
# root:
#
#   bash bench/run.sh -workload all -seed 1
#
# The daemon is built with bench/daemonheap/heap.go added to its package
# through a build overlay, so that it reports its live heap when signalled;
# its own sources are not changed. Every build product, Go build cache
# entry, Go configuration and telemetry file, and run file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The module has no external dependencies; never reach for a network
# toolchain or module proxy.
export GOTOOLCHAIN=local GOPROXY=off

printf '{"Replace": {"%s": "%s"}}\n' "$root/cmd/dgserved/zz_benchheap.go" "$root/bench/daemonheap/heap.go" >"$out/overlay.json"
go -C "$root/bench" build -o "$out/bin/" . >&2
go -C "$root/bench" build -tags benchheap -overlay "$out/overlay.json" -o "$out/bin/dgserved" repro/cmd/dgserved >&2
exec "$out/bin/bench" -work "$out" -dgserved "$out/bin/dgserved" "$@"
