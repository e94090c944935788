"""Compare two result files row by row against the benchmark's bounds.

    python -m bench.compare BASE.json CANDIDATE.json

Every (workload, end-to-end metric) pair is one row: both values, the
ratio with its base, how much worse the candidate is, and a verdict:

- ``ok``          within the bound;
- ``BREACH``      worse than the base by more than the bound;
- ``unresolved``  within the bound, but the repeats of one side spread wider
                  than the bound, so "unchanged" cannot be claimed — unless
                  every candidate repeat reads better than every base repeat.

Bounds for the metrics the driver gates come from ``BENCHMARK.json``; the
rest (absolute bounds, and metrics that are ``null`` on some workloads)
come from :mod:`bench.metrics`. Exit status is non-zero on any breach or a
higher ``failed_share``. At equal seeds ``quality_score`` may not drop at
all; with ``--same-commit`` (two sets of one commit) it and the stream
digests must be identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.metrics import END_TO_END, EndToEnd

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> dict[str, EndToEnd]:
    """The full metric table, with the contract's bounds where it has them."""
    table = {m.name: m for m in END_TO_END}
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in contract["end_to_end"]:
        base = table[entry["name"]]
        table[entry["name"]] = EndToEnd(
            base.name, entry["unit"], entry["better"], entry["bound"],
            absolute=False, in_contract=True, what=base.what,
        )
    return table


def timed_rows(result: dict) -> dict[str, dict]:
    return {r["workload"]: r for r in result["rows"] if r["mode"] == "timed"}


def worse_by(metric: EndToEnd, base: float, cand: float) -> float:
    """How much worse the candidate is: a share of the base, or absolute."""
    delta = cand - base if metric.better == "lower" else base - cand
    if metric.absolute:
        return delta
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def repeat_spread(raw: dict | None) -> float | None:
    """(max - min) / median of one side's per-repeat values."""
    if not raw or raw.get("n", 0) < 2 or not raw["median"]:
        return None
    return (raw["max"] - raw["min"]) / abs(raw["median"])


def dominates(metric: EndToEnd, base_raw: dict, cand_raw: dict) -> bool:
    """Every candidate repeat reads better than every base repeat."""
    if metric.better == "lower":
        return cand_raw["max"] < base_raw["min"]
    return cand_raw["min"] > base_raw["max"]


def compare_rows(
    base: dict, cand: dict, bounds: dict[str, EndToEnd], same_seed: bool,
    same_commit: bool = False,
):
    """Yield (metric, base value, candidate value, worse-by, verdict)."""
    for name, metric in bounds.items():
        b, c = base["end_to_end"].get(name), cand["end_to_end"].get(name)
        if b is None or c is None:
            verdict = "n/a" if b is None and c is None else "BREACH (null on one side)"
            yield metric, b, c, None, verdict
            continue
        if name == "quality_score" and not same_seed:
            yield metric, b, c, None, "n/a (different seeds: different texts)"
            continue
        worse = worse_by(metric, b, c)
        if worse > metric.bound:
            verdict = "BREACH"
        elif name == "quality_score" and same_commit and b != c:
            verdict = "BREACH (one commit, one seed: must be identical)"
        else:
            verdict = "ok"
            b_raw, c_raw = base["raw"].get(name), cand["raw"].get(name)
            spreads = [s for s in (repeat_spread(b_raw), repeat_spread(c_raw)) if s]
            if not metric.absolute and spreads and max(spreads) > metric.bound:
                if dominates(metric, b_raw, c_raw):
                    verdict = "ok (better in every repeat)"
                else:
                    verdict = f"unresolved (repeat spread {max(spreads):.1%} > bound)"
        yield metric, b, c, worse, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--same-commit", action="store_true",
                        help="two sets of one commit: quality and digests must match")
    args = parser.parse_args(argv)
    base_result = json.loads(args.base.read_text())
    cand_result = json.loads(args.candidate.read_text())
    same_seed = (
        base_result["environment"]["seed"] == cand_result["environment"]["seed"]
    )
    bounds = load_bounds()
    base_rows, cand_rows = timed_rows(base_result), timed_rows(cand_result)
    breaches = 0
    for workload in base_rows:
        if workload not in cand_rows:
            print(f"== {workload}: missing from candidate -> BREACH")
            breaches += 1
            continue
        base, cand = base_rows[workload], cand_rows[workload]
        print(f"== {workload}  (base seed {base['seed']}, candidate seed {cand['seed']})")
        for metric, b, c, worse, verdict in compare_rows(
            base, cand, bounds, same_seed, args.same_commit
        ):
            if b is None or c is None or worse is None:
                print(f"   {metric.name:<16} {b!s:>12} -> {c!s:>12}  {verdict}")
            else:
                ratio = f"{c / b:.3f}x of {b:.6g}" if b else f"{c:.6g} vs 0"
                limit = f"{metric.bound:g}" if metric.absolute else f"{metric.bound:.0%}"
                change = f"{worse:+.4g}" if metric.absolute else f"{worse:+.1%}"
                print(
                    f"   {metric.name:<16} {b:>12.6g} -> {c:>12.6g} {metric.unit:<6}"
                    f" {ratio:<24} worse by {change} (bound {limit})  {verdict}"
                )
            breaches += verdict.startswith("BREACH")
        if same_seed:
            same = base["stream_digest"] == cand["stream_digest"]
            differs = "BREACH (differs)" if args.same_commit else "differs"
            print(f"   stream digest    {base['stream_digest']} -> "
                  f"{cand['stream_digest']}  {'identical' if same else differs}")
            breaches += args.same_commit and not same
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
