#!/usr/bin/env bash
# Regenerate every table and figure of the paper into results/, then refresh
# EXPERIMENTS.md. Usage:
#
#   scripts/reproduce_all.sh [smoke|quick|paper|full] [--jobs N]
#
# quick: minutes. paper: ~1-2 hours on one core (Figure 8/9 dominate).
# full: unscaled Table 3 datasets; hours and ~16 GiB of host RAM.
# smoke: seconds; only checks the machinery.
#
# --jobs N fans each harness's grid across N worker threads (0 = all
# cores). Output is byte-identical to a serial run; only wall-clock
# changes.
# Every binary generates the datasets it needs. Figures 8, 2, 9 and 11
# sweep overlapping unit grids, so they share a per-invocation report
# cache (results/.report-cache, cleared up front): the first binary to
# simulate a unit records its report, the rest replay it byte-identically.
# Figure 8 runs first because Figure 2's (4K, 2M) units are a subset of
# its grid, so Figure 2 is a pure replay that generates and simulates
# nothing. The cache is unbounded; a whole grid of unit reports is tens
# of KB. Each binary writes results/<name>_<scale>.json, and the script
# records per-binary wall-clock and report-cache hit/miss counts in
# results/BENCH_sweep.json.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="quick"
JOBS=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        smoke|quick|paper|full) SCALE="$1"; shift ;;
        --jobs) JOBS="$2"; shift 2 ;;
        *) echo "usage: $0 [smoke|quick|paper|full] [--jobs N]" >&2; exit 2 ;;
    esac
done

B=target/release
REPORT_CACHE=results/.report-cache
mkdir -p results
# Unit reports must not outlive one invocation (a simulator change would
# otherwise replay stale results), so start from an empty report cache.
rm -rf "$REPORT_CACHE"

cargo build --release -p dvm-bench

suffix="$SCALE"
BENCH_ROWS=""
now_ms() { python3 -c 'import time; print(int(time.time()*1000))'; }
# Read a `key=` field from the stderr stats line with the given prefix.
cache_count() { # prefix, key, stderr-file
    awk -v prefix="^$1:" -v key="$2" '$0 ~ prefix {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2 && kv[1] == key) total += kv[2]
    } END { print total + 0 }' "$3"
}
run() { # name, extra args...
    local name="$1"; shift
    echo ">>> $name --scale $SCALE --jobs $JOBS $*"
    local t0 t1 err
    err=$(mktemp)
    t0=$(now_ms)
    "$B/$name" --scale "$SCALE" --jobs "$JOBS" \
        --json "results/${name}_${suffix}.json" "$@" \
        > "results/${name}_${suffix}.txt" \
        2> "$err" || { cat "$err" >&2; rm -f "$err"; exit 1; }
    t1=$(now_ms)
    cat "$err" >&2
    local hits misses
    hits=$(cache_count report-cache hits "$err")
    misses=$(cache_count report-cache misses "$err")
    rm -f "$err"
    BENCH_ROWS+="    {\"bin\": \"$name\", \"wall_ms\": $((t1 - t0)), \"report_hits\": $hits, \"report_misses\": $misses},"$'\n'
}

# The shared unit-report cache.
RC_ARGS=(--report-cache "$REPORT_CACHE")

run table3
run table1
run table4
run fig10
run fig8 "${RC_ARGS[@]}"
run fig2 "${RC_ARGS[@]}"
run fig9 "${RC_ARGS[@]}"
run fig11 "${RC_ARGS[@]}"
run table5
run virt
run churn

# Timing + cache summary for this sweep (not diffed against goldens).
{
    echo "{"
    echo "  \"schema_version\": 1,"
    echo "  \"experiment\": \"bench-sweep\","
    echo "  \"scale\": \"$SCALE\","
    echo "  \"jobs\": $JOBS,"
    echo "  \"bins\": ["
    printf '%s' "${BENCH_ROWS%,$'\n'}"
    echo ""
    echo "  ]"
    echo "}"
} > results/BENCH_sweep.json

python3 scripts/fill_experiments.py
echo "done: see results/ and EXPERIMENTS.md"
