#!/usr/bin/env python3
"""Append a quick-scale wall-clock sample to results/BENCH_trend.json
and guard against regressions.

Usage: bench_trend.py LABEL FIG8_MS FIG9_MS [FIG11_MS]

The trend file is an append-only history of the figure sweeps that
dominate a quick reproduction. The *baseline* is the newest prior entry
that carries a fig8 sample (older rows without one, such as the fig2
row recorded for the since-removed intra-unit pipeline, are skipped);
after appending, the script exits non-zero if the new fig8 wall time
exceeds the baseline by more than 25% — a per-access performance
regression in the simulation core, which scripts/ci.sh treats as a
failure. fig9 and fig11 are
recorded but not guarded: under the shared report cache they mostly
replay fig8's units, so their wall time largely measures I/O (for
fig11, plus the two SVA schemes). Entries recorded before fig11 existed
simply lack the key.
"""

import json
import sys
from pathlib import Path

GUARD_RATIO = 1.25

def load_doc() -> tuple[Path, dict]:
    path = Path(__file__).resolve().parent.parent / "results" / "BENCH_trend.json"
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "bench-trend", path
    return path, doc

def main() -> int:
    if len(sys.argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    label, fig8_ms, fig9_ms = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    fig11_ms = int(sys.argv[4]) if len(sys.argv) == 5 else None
    path, doc = load_doc()
    baseline = next(
        (e for e in reversed(doc["entries"]) if "fig8_wall_ms" in e), None
    )
    if baseline is None:
        print("bench-trend: no prior fig8 sample to guard against", file=sys.stderr)
        return 2
    entry = {"label": label, "fig8_wall_ms": fig8_ms, "fig9_wall_ms": fig9_ms}
    if fig11_ms is not None:
        entry["fig11_wall_ms"] = fig11_ms
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    limit = baseline["fig8_wall_ms"] * GUARD_RATIO
    fig11_note = "" if fig11_ms is None else f", fig11 {fig11_ms} ms"
    print(
        f"bench-trend: fig8 {fig8_ms} ms, fig9 {fig9_ms} ms{fig11_note} "
        f"(baseline '{baseline['label']}': fig8 {baseline['fig8_wall_ms']} ms, "
        f"guard {limit:.0f} ms)"
    )
    if fig8_ms > limit:
        print(
            f"bench-trend: FAIL — fig8 wall time regressed more than "
            f"{GUARD_RATIO - 1:.0%} over the baseline",
            file=sys.stderr,
        )
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
