#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload dc-disk --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, results) goes under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)$(git -C "$root" diff --quiet HEAD 2>/dev/null || echo -dirty)"
fi
cd "$root"
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
