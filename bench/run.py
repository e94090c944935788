"""The benchmark's one command.

    python -m bench.run [--seed N] [--workload NAME] [--seconds S]
                        [--trace 0|1 | --traced] [--out PATH] [--record]

With no ``--trace`` it runs one full set: every selected workload untraced
(the end-to-end numbers), then once more traced (the per-layer numbers).
``--trace 0`` or ``--trace 1`` runs only that half; with one ``--workload``
this is the driver's contract form, and the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Each repeat of a workload is a fresh ``bench.child`` subprocess, launched
one at a time with BLAS pinned to one thread. Every metric is printed by
name and unit; the set is written to ``bench/results/latest.json`` with one
Chrome trace per traced workload beside it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench.metrics import CONTRACT_END_TO_END, END_TO_END, PER_LAYER, SLO_LIMITS_MS
from bench.stats import median, percentile, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Every workload is sized so that one timed pass takes about this long on
# the 2-core reference box; --seconds buys repeats of it.
PASS_SECONDS = 3.3
MIN_REPEATS = 3  # 3 x 8 requests is the least whose pooled count supports a median
CHILD_TIMEOUT_S = 150

# From the metric tables, not bench.workloads: this process never imports
# the program under test, only its children do.
WORKLOAD_NAMES = tuple(SLO_LIMITS_MS)


def repeats_for(seconds: float) -> int:
    return max(MIN_REPEATS, round(seconds / PASS_SECONDS))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), src, env.get("PYTHONPATH", "")) if p
    )
    return env


def launch_child(workload: str, seed: int, mode: str, **flags) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    argv = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--mode", mode,
        "--process-start", repr(time.perf_counter()),
    ]
    for name, value in flags.items():
        if value is True:
            argv.append(f"--{name.replace('_', '-')}")
        elif value not in (False, None):
            argv += [f"--{name.replace('_', '-')}", str(value)]
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: {workload} repeat exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---- merging repeats ---------------------------------------------------------


def merge_failures(records: list[dict]) -> list[str | None]:
    """Per-request verdict over all repeats: the first reason any repeat gave.

    On top of each repeat's own check, a request whose stream differs
    between repeats fails: the same inputs must give the same tokens.
    """
    n = records[0]["requests"]
    verdicts: list[str | None] = [None] * n
    for record in records:
        for i, reason in enumerate(record["verdicts"]):
            verdicts[i] = verdicts[i] or reason
    for i in range(n):
        if len({r["request_digests"][i] for r in records}) > 1:
            verdicts[i] = verdicts[i] or "stream differs between repeats"
    return verdicts


# end-to-end metric -> the child-record key its per-repeat value comes from
RAW_KEYS = {
    "setup_s": "setup_s", "tokens_per_s": "tokens_per_s", "wall_s": "wall_s",
    "peak_rss_mb": "peak_rss_mb", "ttft_ms_p50": "ttft_ms",
    "itl_ms_p50": "gaps_ms", "request_ms_p50": "request_ms",
}


def pooled(records: list[dict], key: str) -> list[float]:
    """One per-request list over all repeats; a failed request's None dropped."""
    return [v for r in records for v in r[key] if v is not None]


def repeat_values(records: list[dict], key: str) -> list[float]:
    """One value per repeat: the scalar itself, or the median of a list."""
    values = [
        median(pooled([r], key)) if isinstance(r[key], list) else r[key]
        for r in records
    ]
    return [v for v in values if v is not None]


def best(values: list[float], better: str) -> float | None:
    """The best repeat's value: what the program does when the host leaves it alone.

    Interference on a shared host only ever adds time, and it drifts over
    tens of seconds: the median of three repeats follows the drift, the
    best of three does not (README, measured noise notes). The per-repeat
    min / median / max stay in the results file beside it.
    """
    if not values:
        return None
    return min(values) if better == "lower" else max(values)


def best_p50(records: list[dict], key: str) -> float | None:
    """The best repeat's median, once the pooled sample supports a median.

    Samples of one repeat are not independent (every request admitted in a
    step shares its timestamp), so pooling them over repeats and taking the
    median picks a repeat by how the clusters happen to interleave; each
    repeat's own median is taken first instead.
    """
    if percentile(pooled(records, key), 50) is None:
        return None
    return best(repeat_values(records, key), "lower")


def end_to_end(name: str, records: list[dict], verdicts) -> dict[str, float | None]:
    """The 11 end-to-end metrics from a workload's untraced repeats."""
    ttft_limit, gap_limit = SLO_LIMITS_MS[name]
    sent = len(verdicts) * len(records)
    met = 0
    for r in records:
        for verdict, ttft, gap in zip(verdicts, r["ttft_ms"], r["mean_gap_ms"]):
            # A failed or refused request misses, whatever its timing.
            met += (
                verdict is None
                and ttft is not None and ttft <= ttft_limit
                and (gap is None or gap <= gap_limit)
            )
    return {
        "setup_s": median(repeat_values(records, "setup_s")),
        "tokens_per_s": best(repeat_values(records, "tokens_per_s"), "higher"),
        "ttft_ms_p50": best_p50(records, "ttft_ms"),
        "ttft_ms_p90": percentile(pooled(records, "ttft_ms"), 90),
        "itl_ms_p50": best_p50(records, "gaps_ms"),
        "itl_ms_p99": percentile(pooled(records, "gaps_ms"), 99),
        "request_ms_p50": best_p50(records, "request_ms"),
        "quality_score": records[0]["quality_score"],
        "slo_attainment": met / sent,
        "failed_share": sum(v is not None for v in verdicts) / len(verdicts),
        "peak_rss_mb": median(repeat_values(records, "peak_rss_mb")),
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, tiny: bool, out_dir: Path
) -> dict:
    """All repeats of one workload in one mode, merged into one result row."""
    started = time.perf_counter()
    if traced:
        # One plain repeat beside the traced one: their ratio is the
        # tracing overhead, measured in the same minute on the same box.
        plain = launch_child(name, seed, "timed", tiny=tiny)
        trace_path = out_dir / f"trace_{name}.json"
        record = launch_child(
            name, seed, "traced", tiny=tiny, solo=True, trace_path=trace_path
        )
        records = [plain, record]
        layers = dict(record["layers"])
        layers["bench.trace_overhead"] = record["wall_s"] / plain["wall_s"] - 1.0
        extra = {
            "per_layer": {k: layers.get(k) for k in PER_LAYER},
            "work": record["work"],
            "trace_file": _shown(trace_path),
        }
    else:
        records = [
            launch_child(name, seed, "timed", tiny=tiny, solo=(i == 0))
            for i in range(repeats_for(seconds))
        ]
        extra = {}
    verdicts = merge_failures(records)
    failed = sum(v is not None for v in verdicts)
    row = {
        "workload": name,
        "mode": "traced" if traced else "timed",
        "seed": seed,
        "repeats": len(records),
        "requests_sent": len(verdicts) * len(records),
        "requests_per_repeat": len(verdicts),
        "succeeded": (len(verdicts) - failed) * len(records),
        "failed": failed * len(records),
        "failures": sorted({v for v in verdicts if v}),
        "correct": failed == 0,
        "stream_digest": records[0]["stream_digest"],
        "inputs_digest": records[0]["inputs_digest"],
        "solo_checked": sorted({i for r in records for i in r["solo_checked"]}),
        **extra,
    }
    if not traced:
        row["end_to_end"] = end_to_end(name, records, verdicts)
        # Per-repeat values behind each figure: min / median / max, so a
        # reader (and bench.compare) sees the spread, not only the centre.
        row["raw"] = {
            name: spread(repeat_values(records, key)) for name, key in RAW_KEYS.items()
        }
        row["samples"] = {
            "ttft_ms": sum(len(r["ttft_ms"]) for r in records),
            "gaps_ms": sum(len(r["gaps_ms"]) for r in records),
        }
        ttft_limit, gap_limit = SLO_LIMITS_MS[name]
        row["slo"] = {
            "ttft_limit_ms": ttft_limit,
            "mean_gap_limit_ms": gap_limit,
            # What the limits are frozen from (3x these, on the seed run).
            "ttft_ms_median": median(pooled(records, "ttft_ms")),
            "mean_gap_ms_median": median(pooled(records, "mean_gap_ms")),
        }
    row["suite_wall_s"] = time.perf_counter() - started
    return row


# ---- reporting ---------------------------------------------------------------


def environment(seed: int, seconds: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "worker_start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats_for(seconds),
    }


def _shown(path: Path) -> str:
    """A path relative to the repo root when it lies inside it."""
    path = path.resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_row(row: dict) -> None:
    head = (
        f"== {row['workload']} [{row['mode']}] seed={row['seed']} "
        f"repeats={row['repeats']} sent={row['requests_sent']} "
        f"succeeded={row['succeeded']} failed={row['failed']} "
        f"digest={row['stream_digest']} ({row['suite_wall_s']:.1f} s)"
    )
    print(head)
    for reason in row["failures"]:
        print(f"   FAILED: {reason}")
    if "end_to_end" in row:
        units = {m.name: m.unit for m in END_TO_END}
        for name, value in row["end_to_end"].items():
            print(f"   {name:<42} {_fmt(value):>14} {units[name]}")
        for key, raw in row["raw"].items():
            print(
                f"   raw {key:<38} min {_fmt(raw['min'])} / median "
                f"{_fmt(raw['median'])} / max {_fmt(raw['max'])}"
            )
    if "per_layer" in row:
        for name, value in row["per_layer"].items():
            print(f"   {name:<42} {_fmt(value):>14} {PER_LAYER[name][0]}")
        print("   measured time beside computed work:")
        for layer, work in row["work"].items():
            flag = "  <-- dispatch-bound (>10x best ns/byte)" if work["dispatch_bound"] else ""
            print(
                f"   {layer:<24} calls {work['calls']:>7} time {work['time_s']*1e3:9.3f} ms "
                f"bytes {work.get('bytes', 0):>12} ns/byte {_fmt(work['ns_per_byte'])}{flag}"
            )
        print(f"   trace: {row['trace_file']}")


def contract_line(row: dict) -> str:
    """The driver's result object for one (workload, mode) run."""
    if row["mode"] == "timed":
        values = row["end_to_end"]
        metrics = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in CONTRACT_END_TO_END
        }
        missing = [n for n, v in metrics.items() if v["value"] is None]
        if missing:
            raise SystemExit(f"bench: no value for {missing} on {row['workload']}")
    else:
        # A layer this workload does not exercise reports 0, not null: the
        # driver wants a number for every name.
        metrics = {
            name: {"value": row["per_layer"][name] or 0, "unit": PER_LAYER[name][0]}
            for name in PER_LAYER
        }
    return json.dumps(
        {
            "correct": row["correct"],
            "attempted": row["requests_sent"],
            "failed": row["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--tiny", action="store_true", help="toy shapes (tests)")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "latest.json")
    parser.add_argument("--record", action="store_true",
                        help="append a summary line to bench/history.jsonl")
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    args.out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for traced in modes:
        for name in names:
            row = run_workload(
                name, args.seed, args.seconds, traced, args.tiny, args.out.parent
            )
            print_row(row)
            rows.append(row)
    result = {"environment": environment(args.seed, args.seconds), "rows": rows}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {_shown(args.out)}")
    if args.record:
        with open(BENCH_DIR / "history.jsonl", "a") as fh:
            fh.write(json.dumps(history_line(result)) + "\n")
    if args.workload and args.trace is not None:
        # Contract form: the verdict travels in the object, the exit code
        # says only that the run completed.
        print(contract_line(rows[0]))
        return 0
    return 0 if all(r["correct"] for r in rows) else 1


def history_line(result: dict) -> dict:
    """One line per set: environment plus every end-to-end value."""
    return {
        "environment": result["environment"],
        "end_to_end": {
            r["workload"]: r["end_to_end"] for r in result["rows"] if "end_to_end" in r
        },
        "digests": {r["workload"]: r["stream_digest"] for r in result["rows"]},
    }


if __name__ == "__main__":
    raise SystemExit(main())
