#!/usr/bin/env python3
"""Guard simulator host speed against the committed perfbench baselines.

Usage: bench_trend.py PERFBENCH_STDOUT

PERFBENCH_STDOUT is what

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\
        --workload graph-translate --seed 0 --seconds 20 --trace 0

printed; its last line is a JSON object with `failed` and `metrics`.
The script exits non-zero if any unit failed, or if a guarded metric
exceeds GUARD_RATIO times its baseline: the newest entry of
results/BENCH_trend.json that carries the metric's baseline key.
`wall_s` (running the units) is guarded against
`graph_translate_wall_s`, and `setup_s` (generating FR) against
`graph_translate_setup_s`.

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
# (perfbench metric, baseline key in results/BENCH_trend.json)
GUARDS = (
    ("wall_s", "graph_translate_wall_s"),
    ("setup_s", "graph_translate_setup_s"),
)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = Path(sys.argv[1]).read_text().strip().splitlines()
    if not lines:
        print("bench-trend: empty perfbench output", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    trend = Path(__file__).resolve().parent.parent / "results" / "BENCH_trend.json"
    doc = json.loads(trend.read_text())
    assert doc["experiment"] == "bench-trend", trend
    print(
        f"bench-trend: graph-translate, {result['failed']} of "
        f"{result['attempted']} units failed"
    )
    status = 0
    if result["failed"] > 0:
        print("bench-trend: FAIL — perfbench units failed", file=sys.stderr)
        status = 1
    for metric, key in GUARDS:
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
