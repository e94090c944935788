"""Spread of every end-to-end metric over several result files.

    python -m bench.spread RUN1.json RUN2.json ... (one file per seed)

For each workload and metric: the median, and the distance between the
first and third quartile as a share of the median — the figure the driver
holds against the metric's bound. This is how the bounds in
``BENCHMARK.json`` were set; a spread above a third of its bound is marked.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench.compare import load_bounds, timed_rows
from bench.stats import iqr_share


def main(argv: list[str] | None = None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if len(paths) < 2:
        print(__doc__)
        return 2
    bounds = load_bounds()
    runs = [timed_rows(json.loads(p.read_text())) for p in paths]
    for workload in runs[0]:
        rows = [run[workload] for run in runs if workload in run]
        print(f"== {workload}  ({len(rows)} runs)")
        for name, metric in bounds.items():
            values = [r["end_to_end"][name] for r in rows]
            if any(v is None for v in values):
                print(f"   {name:<16} null")
                continue
            share = iqr_share(values)
            mark = ""
            if share is not None and not metric.absolute and share > metric.bound / 3:
                mark = f"  <-- above a third of the {metric.bound:.0%} bound"
            shown = "n/a" if share is None else f"{share:.1%}"
            print(
                f"   {name:<16} median {statistics.median(values):>10.5g} {metric.unit:<6}"
                f" iqr/median {shown:>7}  [{min(values):.5g} .. {max(values):.5g}]{mark}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
