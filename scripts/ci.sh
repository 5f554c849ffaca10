#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, the tier-1 test suite, the
# multi-process shard-merge determinism check, a golden-result diff, and
# a probe-scaled host-speed guard.
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

echo "== cargo build --release (tier-1)"
cargo build --release
# The root package does not depend on the bench/farm *binaries*, so
# build them explicitly — the gates below run them from target/release.
cargo build --release -p dvm-bench
cargo build --release -p dvm-farm

echo "== cargo test (tier-1)"
cargo test -q

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== cargo test --release (accel, mem, mmu)"
# Debug builds panic on integer overflow and keep debug_assert!s; release
# builds wrap and drop them. Row offsets and lengths are index
# arithmetic, so the crates that compute them are also tested under the
# release profile the simulator ships with.
cargo test --release -q -p dvm-accel -p dvm-mem -p dvm-mmu

echo "== shard-merge determinism (fig2, quick scale, 2 shards)"
# A 2-shard run (a loopback farm: in-process farmd plus two local
# workers) must be byte-identical to the serial run — text table and
# JSON document alike. The shared dataset cache
# means the second run skips regeneration entirely.
SHARD_TMP=$(mktemp -d)
FARM_PIDS=""
trap 'kill $FARM_PIDS 2> /dev/null || true; rm -rf "$SHARD_TMP"' EXIT
target/release/fig2 --scale quick --datasets FR --jobs 1 \
    --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/serial.json" > "$SHARD_TMP/serial.txt"
target/release/fig2 --scale quick --datasets FR --jobs 1 --shards 2 \
    --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/sharded.json" > "$SHARD_TMP/sharded.txt"
cmp "$SHARD_TMP/serial.txt" "$SHARD_TMP/sharded.txt"
cmp "$SHARD_TMP/serial.json" "$SHARD_TMP/sharded.json"
echo "fig2 sharded output is byte-identical to serial"

echo "== farm determinism (fig2 through farmd + 2 workers on loopback)"
# The same sweep submitted to a live coordinator with two registered
# workers must also be byte-identical to the serial run above. farmd
# binds port 0; its actual address is scraped from the log line it
# prints once bound.
target/release/farmd --listen 127.0.0.1:0 2> "$SHARD_TMP/farmd.log" &
FARM_PIDS="$!"
FARM_ADDR=""
for _ in $(seq 1 100); do
    FARM_ADDR=$(sed -n 's/^farmd: listening on //p' "$SHARD_TMP/farmd.log")
    [[ -n $FARM_ADDR ]] && break
    sleep 0.1
done
[[ -n $FARM_ADDR ]] || { echo "farmd never printed its address" >&2; exit 1; }
target/release/farmworker --connect "$FARM_ADDR" --name ci-w1 \
    --bin-dir target/release 2> /dev/null &
FARM_PIDS="$FARM_PIDS $!"
target/release/farmworker --connect "$FARM_ADDR" --name ci-w2 \
    --bin-dir target/release 2> /dev/null &
FARM_PIDS="$FARM_PIDS $!"
target/release/fig2 --scale quick --datasets FR --jobs 1 --shards 2 \
    --farm "$FARM_ADDR" --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/farm.json" > "$SHARD_TMP/farm.txt"
cmp "$SHARD_TMP/serial.txt" "$SHARD_TMP/farm.txt"
cmp "$SHARD_TMP/serial.json" "$SHARD_TMP/farm.json"
# A healthy two-worker run needs no retries: any requeue or failure in
# the coordinator log fails the gate even when the bytes match.
if grep -E 'requeued|failed' "$SHARD_TMP/farmd.log"; then
    echo "farmd requeued or failed a slice in a healthy run" >&2
    exit 1
fi
kill $FARM_PIDS 2> /dev/null || true
FARM_PIDS=""
echo "fig2 farm output is byte-identical to serial"

echo "== threaded determinism (fig2, quick scale, --jobs 2)"
# Two sweep worker threads in one process must also be byte-identical to
# the serial run, text table and JSON document alike. The shard and farm
# gates above spread units over processes; this one covers the
# in-process worker pool.
target/release/fig2 --scale quick --datasets FR --jobs 2 \
    --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/jobs2.json" > "$SHARD_TMP/jobs2.txt"
cmp "$SHARD_TMP/serial.txt" "$SHARD_TMP/jobs2.txt"
cmp "$SHARD_TMP/serial.json" "$SHARD_TMP/jobs2.json"
echo "fig2 --jobs 2 output is byte-identical to serial"

echo "== corrupt dataset-cache entry (fig2, quick scale)"
# A flipped num_vertices bit in a cached CSR header must fail the entry's
# checksum: the run regenerates the graph, counts one rejection, and every
# output byte matches the serial run above.
cp -r "$SHARD_TMP/cache" "$SHARD_TMP/corrupt"
python3 - "$SHARD_TMP"/corrupt/FR_div*.csr <<'PY'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    f.seek(25)  # num_vertices is the u32 at bytes 24..28
    byte = f.read(1)[0]
    f.seek(25)
    f.write(bytes([byte ^ 0x01]))
PY
target/release/fig2 --scale quick --datasets FR --jobs 1 \
    --cache-dir "$SHARD_TMP/corrupt" \
    --json "$SHARD_TMP/corrupt.json" > "$SHARD_TMP/corrupt.txt" \
    2> "$SHARD_TMP/corrupt.err"
cmp "$SHARD_TMP/serial.txt" "$SHARD_TMP/corrupt.txt"
cmp "$SHARD_TMP/serial.json" "$SHARD_TMP/corrupt.json"
grep -q "rejected=1 " "$SHARD_TMP/corrupt.err"
echo "fig2 rejected the corrupt entry and its output is byte-identical to serial"

echo "== golden-result diff (virt, fig10, table4, quick scale)"
# Regenerate the cheap quick-scale documents and diff them against the
# committed goldens; the full set is checked by reproduce_all.sh +
# scripts/diff_results.sh.
target/release/virt --json "$SHARD_TMP/virt_quick.json" > /dev/null
target/release/fig10 --scale quick --json "$SHARD_TMP/fig10_quick.json" > /dev/null
target/release/table4 --scale quick --json "$SHARD_TMP/table4_quick.json" > /dev/null
scripts/diff_results.sh "$SHARD_TMP" virt fig10 table4

echo "== golden-result diff (fig8 + fig9 + fig11, quick scale)"
# The three figures share one fresh report cache (fig8 simulates, fig9
# replays, fig11 replays the 4K/DVM-PE+/Ideal columns and simulates
# only the two SVA schemes) — the reproduce_all.sh arrangement. Host
# speed is guarded by perfbench at the end, not by these wall times.
# Two sweep threads: the fig2, fig11 and churn gates check that --jobs 2
# output is byte-identical to serial, and it halves this step's time.
for fig in fig8 fig9 fig11; do
    target/release/$fig --scale quick --jobs 2 --cache-dir results/.dataset-cache \
        --report-cache "$SHARD_TMP/report-cache" \
        --json "$SHARD_TMP/${fig}_quick.json" > /dev/null
done
scripts/diff_results.sh "$SHARD_TMP" fig8 fig9 fig11

echo "== shard-merge determinism (fig11, quick scale, 2 shards)"
# The new binary must honour the same contract as the old ones: a
# 2-shard loopback-farm run is byte-identical to a serial one (the warm
# report cache makes both replays, so this checks the merge plumbing).
target/release/fig11 --scale quick --datasets FR --jobs 1 \
    --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_serial.json" > "$SHARD_TMP/fig11_serial.txt"
target/release/fig11 --scale quick --datasets FR --jobs 1 --shards 2 \
    --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_sharded.json" > "$SHARD_TMP/fig11_sharded.txt"
cmp "$SHARD_TMP/fig11_serial.txt" "$SHARD_TMP/fig11_sharded.txt"
cmp "$SHARD_TMP/fig11_serial.json" "$SHARD_TMP/fig11_sharded.json"
target/release/fig11 --scale quick --datasets FR --jobs 2 \
    --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_jobs2.json" > "$SHARD_TMP/fig11_jobs2.txt"
cmp "$SHARD_TMP/fig11_serial.txt" "$SHARD_TMP/fig11_jobs2.txt"
cmp "$SHARD_TMP/fig11_serial.json" "$SHARD_TMP/fig11_jobs2.json"
echo "fig11 sharded and threaded outputs are byte-identical to serial"

echo "== churn time-series (quick scale: golden diff + determinism)"
# The churn trajectory is a pure function of its config: the quick-scale
# document must match its committed golden exactly, and a 2-shard or
# 2-thread run must be byte-identical to serial (each config is one unit,
# so sharding splits the three configs across workers).
target/release/churn --scale quick --jobs 1 \
    --json "$SHARD_TMP/churn_quick.json" > "$SHARD_TMP/churn_serial.txt"
scripts/diff_results.sh "$SHARD_TMP" churn
target/release/churn --scale quick --jobs 1 --shards 2 \
    --json "$SHARD_TMP/churn_sharded.json" > "$SHARD_TMP/churn_sharded.txt"
cmp "$SHARD_TMP/churn_serial.txt" "$SHARD_TMP/churn_sharded.txt"
cmp "$SHARD_TMP/churn_quick.json" "$SHARD_TMP/churn_sharded.json"
target/release/churn --scale quick --jobs 2 \
    --json "$SHARD_TMP/churn_jobs2.json" > "$SHARD_TMP/churn_jobs2.txt"
cmp "$SHARD_TMP/churn_serial.txt" "$SHARD_TMP/churn_jobs2.txt"
cmp "$SHARD_TMP/churn_quick.json" "$SHARD_TMP/churn_jobs2.json"
echo "churn sharded and threaded outputs are byte-identical to serial"

echo "== perf guard (perfbench graph-translate, probe-scaled)"
# The BENCHMARK.json workload that runs all nine schemes' translation
# paths. Fails if any unit fails its checks or if the probe-scaled
# wall_s exceeds 1.25x the baseline committed in results/BENCH_trend.json.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload graph-translate --seed 0 --seconds 20 --trace 0 \
    > "$SHARD_TMP/perfbench.txt"
python3 scripts/bench_trend.py "$SHARD_TMP/perfbench.txt"

echo "ci: all green"
