#!/usr/bin/env bash
# Offline CI gate: formatting, lints, rustdoc links, build, the tier-1
# test suite, the --jobs determinism checks, a diff of every quick-scale
# golden, and probe-scaled host-speed guards.
# Everything here runs with no network and no vendored crates — the
# default workspace has zero external dependencies by design (see
# DESIGN.md, "Sweep engine & hermetic build").
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermetic dependency graph"
# Every package in the workspace's and perfbench's resolved graphs must
# be a local path package: `cargo metadata` reports a non-null `source`
# only for registry and git dependencies.
for manifest in Cargo.toml perfbench/Cargo.toml; do
    cargo metadata --offline --format-version 1 --manifest-path "$manifest" |
        python3 -c '
import json, sys
external = ["%s %s (%s)" % (p["name"], p["version"], p["source"])
            for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
if external:
    sys.exit(sys.argv[1] + " pulls in external packages: " + ", ".join(external))
' "$manifest"
done
echo "no external packages"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# Deleting or privatizing a public item can leave an intra-doc link
# dangling; neither clippy nor the tests see those.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release (tier-1)"
# The root manifest is a virtual workspace, so this builds every member:
# the gates below run the bench binaries from target/release.
cargo build --release

echo "== cargo test (tier-1)"
cargo test -q

echo "== cargo test --release (accel, mem, mmu)"
# Debug builds panic on integer overflow and keep debug_assert!s; release
# builds wrap and drop them. Row offsets and lengths are index
# arithmetic, so the crates that compute them are also tested under the
# release profile the simulator ships with.
cargo test --release -q -p dvm-accel -p dvm-mem -p dvm-mmu

echo "== threaded determinism (fig2, quick scale, --jobs 2)"
# Two sweep worker threads must be byte-identical to the serial run,
# text table and JSON document alike.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
target/release/fig2 --scale quick --datasets FR --jobs 1 \
    --json "$CI_TMP/serial.json" > "$CI_TMP/serial.txt"
target/release/fig2 --scale quick --datasets FR --jobs 2 \
    --json "$CI_TMP/jobs2.json" > "$CI_TMP/jobs2.txt"
cmp "$CI_TMP/serial.txt" "$CI_TMP/jobs2.txt"
cmp "$CI_TMP/serial.json" "$CI_TMP/jobs2.json"
echo "fig2 --jobs 2 output is byte-identical to serial"

echo "== golden-result diff (virt, fig10, table4, table1, table3, quick scale)"
# Regenerate the quick-scale documents of the other grids and diff them
# against the committed goldens. table1 and table3 generate
# every dataset, so they also pin the generators' quick-scale output.
target/release/virt --json "$CI_TMP/virt_quick.json" > /dev/null
target/release/fig10 --scale quick --json "$CI_TMP/fig10_quick.json" > /dev/null
target/release/table4 --scale quick --json "$CI_TMP/table4_quick.json" > /dev/null
for table in table1 table3; do
    target/release/$table --scale quick --jobs 2 \
        --json "$CI_TMP/${table}_quick.json" > /dev/null
done
scripts/diff_results.sh "$CI_TMP" virt fig10 table4 table1 table3

echo "== golden-result diff (fig8 + fig2 + fig9 + fig11, quick scale)"
# accelfigs sweeps the four figures' union grid once and writes each
# figure's document, byte-identical to its own binary's --json. Host
# speed is guarded by perfbench at the end, not by these wall times.
# Two sweep threads: the fig2, accelfigs and churn gates check that
# --jobs 2 output is byte-identical to serial, and it halves this
# step's time.
target/release/accelfigs "$CI_TMP" --scale quick --jobs 2 > /dev/null
scripts/diff_results.sh "$CI_TMP" fig8 fig2 fig9 fig11

echo "== threaded determinism (accelfigs, quick scale FR, --jobs 2)"
# The union sweep runs all nine schemes, so this checks that the
# threaded runner returns every scheme's cells in spec order.
target/release/accelfigs "$CI_TMP/serial" --scale quick --datasets FR --jobs 1 > /dev/null
target/release/accelfigs "$CI_TMP/jobs2" --scale quick --datasets FR --jobs 2 > /dev/null
for fig in fig8 fig2 fig9 fig11; do
    for ext in txt json; do
        cmp "$CI_TMP/serial/${fig}_quick.$ext" "$CI_TMP/jobs2/${fig}_quick.$ext"
    done
done
echo "accelfigs --jobs 2 output is byte-identical to serial"

echo "== churn time-series (quick scale: golden diff + determinism)"
# The churn trajectory is a pure function of its config: the quick-scale
# document must match its committed golden exactly, and a 2-thread run
# must be byte-identical to serial (each config is one unit, so the
# threads split the three configs).
target/release/churn --scale quick --jobs 1 \
    --json "$CI_TMP/churn_quick.json" > "$CI_TMP/churn_serial.txt"
scripts/diff_results.sh "$CI_TMP" churn
target/release/churn --scale quick --jobs 2 \
    --json "$CI_TMP/churn_jobs2.json" > "$CI_TMP/churn_jobs2.txt"
cmp "$CI_TMP/churn_serial.txt" "$CI_TMP/churn_jobs2.txt"
cmp "$CI_TMP/churn_quick.json" "$CI_TMP/churn_jobs2.json"
echo "churn --jobs 2 output is byte-identical to serial"

echo "== perf guard (perfbench graph-translate, probe-scaled)"
# The BENCHMARK.json workload that runs all nine schemes' translation
# paths. Fails if any unit fails its checks or if the probe-scaled
# wall_s or setup_s (generating FR) exceeds 1.25x its baseline committed
# in results/BENCH_trend.json.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload graph-translate --seed 0 --seconds 20 --trace 0 \
    > "$CI_TMP/perfbench.txt"
python3 scripts/bench_trend.py "$CI_TMP/perfbench.txt"

echo "== perf guard (perfbench os-churn, probe-scaled)"
# The BENCHMARK.json workload that forks, breaks CoW pages, maps and
# tears down address spaces. Fails if any unit fails its checks (frames
# leaking included) or if the probe-scaled wall_s exceeds 1.25x its
# baseline committed in results/BENCH_trend.json.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload os-churn --seed 0 --seconds 20 --trace 0 \
    > "$CI_TMP/perfbench_churn.txt"
python3 scripts/bench_trend.py "$CI_TMP/perfbench_churn.txt"

echo "ci: all green"
