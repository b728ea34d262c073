#!/usr/bin/env bash
# Builds the softcache-served daemon and the e2ebench program from this
# checkout's sources, then runs e2ebench with the given arguments:
#
#   bash e2ebench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh steady --workload cold-serve --runs 10
#
# Everything the build leaves behind (binaries, the Go build cache, span
# files) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/softcache-served" ]]; then
	echo "run.sh: no softcache sources at $root (go.mod, cmd/softcache-served)" >&2
	exit 1
fi
# Go telemetry is switched off in the build's own config directory: left on,
# the first go command there starts a detached telemetry process that can
# outlive the benchmark.
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root" && go build -o "$out/softcache-served" ./cmd/softcache-served) >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
if [[ "${1:-}" == steady ]]; then
	shift
	exec "$out/e2ebench" steady -root "$root" -served "$out/softcache-served" "$@"
fi
exec "$out/e2ebench" -root "$root" -served "$out/softcache-served" "$@"
