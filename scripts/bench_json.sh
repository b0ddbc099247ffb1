#!/bin/sh
# Runs the Go benchmark suite and emits a machine-readable snapshot as
# BENCH_<date>.json in the repository root — one point of the performance
# trajectory for the kernel/engine hot paths. Compare snapshots across
# commits (or feed two raw runs to benchstat for significance).
#
# Usage:
#   ./scripts/bench_json.sh                    # full suite, one iteration each
#   ./scripts/bench_json.sh 'SimKernel|Engine' # subset by regexp
#   BENCHTIME=2s ./scripts/bench_json.sh       # longer sampling per benchmark
set -eu
cd "$(dirname "$0")/.."
pattern="${1:-.}"
benchtime="${BENCHTIME:-1x}"
# Never clobber a committed snapshot from the same day: suffix with b, c,
# ... so intra-day before/after pairs both stay in the trajectory (and
# bench_check.sh's `sort | tail -1` still picks the newest).
out="BENCH_$(date +%Y-%m-%d).json"
for suffix in b c d e f g h i j k; do
    [ -e "$out" ] || break
    out="BENCH_$(date +%Y-%m-%d)${suffix}.json"
done
if [ -e "$out" ]; then
    echo "bench_json: all suffixed names for today exist; refusing to clobber $out" >&2
    exit 1
fi
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$tmp"

# Host block: timings compare only between snapshots from the same host.
# GOMAXPROCS is what the benchmarks ran with: the environment's value, else
# Go's default of one per online CPU.
cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$cpu" ] || cpu=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)
cpu=$(printf '%s' "$cpu" | tr -d '"\\')
ncpu=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null) || echo 1)
gomaxprocs="${GOMAXPROCS:-$ncpu}"
# Code size goes next to ns/op: non-test Go lines, counted the way
# ROADMAP.md counts them.
golines=$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/analysis/testdata/*' |
    xargs cat | wc -l | tr -d ' ')

awk -v date="$(date +%Y-%m-%dT%H:%M:%S%z)" \
    -v goversion="$(go env GOVERSION)" \
    -v cpu="$cpu" \
    -v ncpu="$ncpu" \
    -v gomaxprocs="$gomaxprocs" \
    -v golines="$golines" \
    -v benchtime="$benchtime" '
/^Benchmark/ {
    # Drop the -GOMAXPROCS suffix: bench_check.sh looks baselines up by
    # bare name, and the host block records GOMAXPROCS.
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), $(i + 1), $i)
    }
    entries[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, metrics)
}
END {
    printf "{\n  \"date\": \"%s\",\n", date
    printf "  \"host\": {\"cpu\": \"%s\", \"nproc\": %s, \"gomaxprocs\": %s, \"go\": \"%s\", \"go_lines_nontest\": %s},\n", cpu, ncpu, gomaxprocs, goversion, golines
    printf "  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
