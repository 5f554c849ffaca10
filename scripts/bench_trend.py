#!/usr/bin/env python3
"""Guard simulator host speed against the committed perfbench baselines.

Usage: bench_trend.py PERFBENCH_STDOUT

PERFBENCH_STDOUT is what

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\
        --workload WORKLOAD --seed 0 --seconds 20 --trace 0

printed: its `perfbench: workload=...` record line names the workload,
and its last line is a JSON object with `failed` and `metrics`. The
script exits non-zero if any unit failed, or if a guarded metric of that
workload exceeds GUARD_RATIO times its baseline: the newest entry of
results/BENCH_trend.json that carries the baseline key
`<workload>_<metric>`, with the workload's dashes as underscores. Every
workload guards `wall_s` (running the units); graph-translate also
guards `setup_s` (generating FR), which is near zero on os-churn.

Both metrics are scaled to a quiet reference box by perfbench's
host-speed probe, so the guard does not trip on this VM's up-to-1.8x
drift the way the raw fig8 wall times (the older entries of the file,
kept as history) did. The script only reads the trend file; a new
baseline is committed by hand, with the measurement that justifies it.
"""

import json
import sys
from pathlib import Path

GUARD_RATIO = 1.25
# The perfbench metrics guarded per workload.
GUARDS = {
    "graph-translate": ("wall_s", "setup_s"),
    "os-churn": ("wall_s",),
}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = Path(sys.argv[1]).read_text().strip().splitlines()
    if not lines:
        print("bench-trend: empty perfbench output", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    record = next((line for line in lines if line.startswith("perfbench: ")), "")
    fields = dict(f.split("=", 1) for f in record.split()[1:] if "=" in f)
    workload = fields.get("workload")
    if workload not in GUARDS:
        print(f"bench-trend: no guard for workload {workload!r}", file=sys.stderr)
        return 2
    trend = Path(__file__).resolve().parent.parent / "results" / "BENCH_trend.json"
    doc = json.loads(trend.read_text())
    assert doc["experiment"] == "bench-trend", trend
    print(
        f"bench-trend: {workload}, {result['failed']} of "
        f"{result['attempted']} units failed"
    )
    status = 0
    if result["failed"] > 0:
        print("bench-trend: FAIL — perfbench units failed", file=sys.stderr)
        status = 1
    for metric in GUARDS[workload]:
        key = f"{workload.replace('-', '_')}_{metric}"
        baseline = next((e for e in reversed(doc["entries"]) if key in e), None)
        if baseline is None:
            print(f"bench-trend: no {key} baseline in {trend}", file=sys.stderr)
            return 2
        value = result["metrics"][metric]["value"]
        limit = baseline[key] * GUARD_RATIO
        print(
            f"bench-trend: {metric} {value:.3f} s "
            f"(baseline '{baseline['label']}': {baseline[key]:.3f} s, "
            f"guard {limit:.3f} s)"
        )
        if value > limit:
            print(
                f"bench-trend: FAIL — {metric} regressed more than "
                f"{GUARD_RATIO - 1:.0%} over the baseline",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
