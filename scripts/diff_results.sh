#!/usr/bin/env bash
# Compare freshly generated quick-scale result documents against the
# committed goldens in results/golden/. Exits non-zero on any drift, so
# an unintended change to simulator behaviour fails loudly.
#
#   scripts/diff_results.sh [fresh_dir] [experiment...]
#
# fresh_dir defaults to results/ (where reproduce_all.sh writes); with no
# experiment list, every golden is checked. table5 (line counts drift
# with every source change) and BENCH_sweep (timings) deliberately have
# no goldens.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_DIR="${1:-results}"
shift $(( $# > 0 ? 1 : 0 ))

GOLDEN_DIR=results/golden
BIN=target/release/resultdiff
# Always build: a no-op when the binary is fresh, and a rebuild after an
# edit to the diff or JSON code it links.
cargo build --release -q -p dvm-bench --bin resultdiff

if [[ $# -gt 0 ]]; then
    goldens=()
    for exp in "$@"; do
        goldens+=("$GOLDEN_DIR/${exp}_quick.json")
    done
else
    goldens=("$GOLDEN_DIR"/*_quick.json)
fi

status=0
for golden in "${goldens[@]}"; do
    name=$(basename "$golden")
    fresh="$FRESH_DIR/$name"
    if [[ ! -f "$golden" ]]; then
        echo "diff_results: no golden $golden" >&2
        status=1
        continue
    fi
    if [[ ! -f "$fresh" ]]; then
        echo "diff_results: missing fresh result $fresh" >&2
        status=1
        continue
    fi
    if "$BIN" "$golden" "$fresh"; then
        :
    else
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "diff_results: DRIFT DETECTED (see above)" >&2
else
    echo "diff_results: all results match the goldens"
fi
exit $status
