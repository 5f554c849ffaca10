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
# share one grid, so one process, accelfigs, sweeps the union of their
# schemes (15 pairs x 9 schemes) once and writes all four figures'
# results/<fig>_<scale>.{txt,json}, byte-identical to what each figure's
# own binary prints. Every other binary writes
# results/<name>_<scale>.json next to its text table, and the script
# records per-binary wall-clock in results/BENCH_sweep.json.
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
mkdir -p results

cargo build --release -p dvm-bench

suffix="$SCALE"
BENCH_ROWS=""
now_ms() { python3 -c 'import time; print(int(time.time()*1000))'; }
timed() { # name, command...
    local name="$1"; shift
    local t0 t1
    t0=$(now_ms)
    "$@"
    t1=$(now_ms)
    BENCH_ROWS+="    {\"bin\": \"$name\", \"wall_ms\": $((t1 - t0))},"$'\n'
}
run() { # name, extra args...
    local name="$1"; shift
    echo ">>> $name --scale $SCALE --jobs $JOBS $*"
    timed "$name" "$B/$name" --scale "$SCALE" --jobs "$JOBS" \
        --json "results/${name}_${suffix}.json" "$@" \
        > "results/${name}_${suffix}.txt"
}

run table3
run table1
run table4
run fig10
echo ">>> accelfigs results --scale $SCALE --jobs $JOBS"
timed accelfigs "$B/accelfigs" results --scale "$SCALE" --jobs "$JOBS"
run table5
run virt
run churn

# Timing summary for this sweep (not diffed against goldens).
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
