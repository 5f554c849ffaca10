#!/usr/bin/env python3
"""Guard simulator host speed against the committed perfbench baseline.

Usage: bench_trend.py PERFBENCH_STDOUT

PERFBENCH_STDOUT is what

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\
        --workload graph-translate --seed 0 --seconds 20 --trace 0

printed; its last line is a JSON object with `failed` and `metrics`.
The script exits non-zero if any unit failed, or if the probe-scaled
`wall_s` exceeds GUARD_RATIO times the baseline: the newest entry of
results/BENCH_trend.json that carries `graph_translate_wall_s`.

`wall_s` is scaled to a quiet reference box by perfbench's host-speed
probe, so the guard does not trip on this VM's up-to-1.8x drift the
way the raw fig8 wall times (the older entries of the file, kept as
history) did. The script only reads the trend file; a new baseline is
committed by hand, with the measurement that justifies it.
"""

import json
import sys
from pathlib import Path

GUARD_RATIO = 1.25
BASELINE_KEY = "graph_translate_wall_s"


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
    baseline = next((e for e in reversed(doc["entries"]) if BASELINE_KEY in e), None)
    if baseline is None:
        print(f"bench-trend: no {BASELINE_KEY} baseline in {trend}", file=sys.stderr)
        return 2
    wall_s = result["metrics"]["wall_s"]["value"]
    limit = baseline[BASELINE_KEY] * GUARD_RATIO
    print(
        f"bench-trend: graph-translate wall_s {wall_s:.3f} s, "
        f"{result['failed']} of {result['attempted']} units failed "
        f"(baseline '{baseline['label']}': {baseline[BASELINE_KEY]:.3f} s, "
        f"guard {limit:.3f} s)"
    )
    if result["failed"] > 0:
        print("bench-trend: FAIL — perfbench units failed", file=sys.stderr)
        return 1
    if wall_s > limit:
        print(
            f"bench-trend: FAIL — wall_s regressed more than "
            f"{GUARD_RATIO - 1:.0%} over the baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
