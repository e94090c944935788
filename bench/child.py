"""One repeat of one workload, in a process of its own.

``python -m bench.child --workload NAME --seed N --mode timed|traced`` sets
the stack up, runs one untimed warm-up request, then one timed pass on a
fresh frontend, checks it, and prints one JSON object on its last stdout
line. :mod:`bench.run` launches several of these per run, one at a time:
every repeat pays its own set-up (so set-up time has a median) and starts
from a cold interpreter (so no repeat inherits another's allocator state).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import harness, layers  # noqa: E402
from bench.layer_metrics import layer_metrics, mean  # noqa: E402
from bench.workloads import WORKLOADS, Entry, Workload, inputs_digest  # noqa: E402

WARMUP_TOKENS = 4
SOLO_SAMPLE = (0, -1)  # requests (by position) checked against a solo run


def _build_model():
    from repro.experiments.common import make_functional_setup

    setup = make_functional_setup()
    return setup.model, setup.tokenizer


def _warmup_entry(entries: list[Entry]) -> Entry:
    first = entries[0]
    return dataclasses.replace(
        first, arrival_step=0, max_new_tokens=min(WARMUP_TOKENS, first.max_new_tokens)
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _request_digest(tokens: list[int]) -> str:
    return hashlib.sha256(json.dumps(tokens).encode()).hexdigest()[:12]


# ---- the pass ----------------------------------------------------------------


class _ServerObserver:
    """After-step sampling for the traced pass (public attributes only)."""

    def __init__(self) -> None:
        self.peak_used = 0
        self.prefill_tokens = 0

    def __call__(self, server) -> None:
        self.peak_used = max(self.peak_used, server.pool.n_used)
        self.prefill_tokens += server.last_step_prefill_tokens


def run_server_pass(model, tokenizer, workload: Workload, entries, tiny, tracer):
    """Warm up, then one pass on a fresh in-process server."""
    from repro.serving.server import SpeContextServer

    config = workload.engine_config(tokenizer, entries, tiny)
    warm = SpeContextServer(model, config)
    harness.drive_open_loop(warm, [_warmup_entry(entries)])
    setup_done = time.perf_counter()
    del warm

    observer = None
    if tracer is not None:
        tracer.install()
        observer = _ServerObserver()
    try:
        gc.collect()
        started = time.perf_counter()
        server = SpeContextServer(model, config)
        construct_s = time.perf_counter() - started
        result = harness.drive_open_loop(server, entries, observer)
    finally:
        if tracer is not None:
            tracer.remove()
    started = time.perf_counter()
    audit = _audit(server.audit_pool)
    audit_s = time.perf_counter() - started
    observed = {
        "construct_s": construct_s,
        "audit_s": audit_s,
        "server": server,
        "observer": observer,
        "config": config,
    }
    return setup_done, result, audit, observed


def run_http_pass(model, tokenizer, workload: Workload, entries, tiny, tracer):
    """Bring the full stack up on a socket, warm up, then one closed-loop pass."""
    config = workload.engine_config(tokenizer, entries, tiny)
    frontend = harness.HttpFrontend(
        model, tokenizer, config, workload.cluster_config()
    ).start()
    try:
        harness.drive_http_closed_loop(frontend.port, [_warmup_entry(entries)])
        setup_done = time.perf_counter()
        if tracer is not None:
            # After the fork: the workers stay untraced, only this
            # process's engine, placement and HTTP threads record spans.
            tracer.install()
        try:
            result = harness.drive_http_closed_loop(frontend.port, entries)
        finally:
            if tracer is not None:
                tracer.remove()
        started = time.perf_counter()
        audit = _audit(frontend.executor.audit_pools)
        audit_s = time.perf_counter() - started
        routing = frontend.executor.routing
        observed = {
            "spawn_s": frontend.spawn_s,
            "audit_s": audit_s,
            "affinity_hit_rate": routing.hit_rate,
            "config": config,
        }
    finally:
        frontend.close()
    return setup_done, result, audit, observed


def _audit(fn) -> str:
    from repro.kvcache.pool import PoolAuditError

    try:
        fn()
    except PoolAuditError as err:
        return f"pool audit failed: {err}"
    return "clean"


def solo_streams(model, workload, tokenizer, entries, tiny) -> dict[int, list[int]]:
    """Reference streams of the workload's fixed sample, each run alone.

    The solo server keeps the policy and budget but drops everything the
    workload layers on top — chunking, speculation, pool pressure — so a
    match shows that none of them changed a token.
    """
    from repro.serving.trace import solo_token_streams

    config = workload.engine_config(tokenizer, entries, tiny)
    plain = dataclasses.replace(
        config, prefill_chunk_tokens=None, max_step_tokens=None,
        spec_decode_k=0, pool_blocks=None,
    )
    picks = sorted({i % len(entries) for i in SOLO_SAMPLE})
    streams = solo_token_streams(
        model, plain, [entries[i].request() for i in picks], lambda r: r
    )
    return dict(zip(picks, streams))


# ---- entry point -------------------------------------------------------------


def run_child(
    workload_name: str,
    seed: int,
    mode: str = "timed",
    tiny: bool = False,
    solo: bool = False,
    process_start: float | None = None,
    trace_path: Path | None = None,
) -> dict:
    """One repeat; returns the JSON-able record :mod:`bench.run` merges."""
    origin = _PROCESS_START if process_start is None else process_start
    workload = WORKLOADS[workload_name]
    model, tokenizer = _build_model()
    entries = workload.entries(tokenizer, seed, tiny)
    tracer = layers.Tracer() if mode == "traced" else None
    run_pass = run_http_pass if workload.frontend == "http" else run_server_pass
    setup_done, result, audit, observed = run_pass(
        model, tokenizer, workload, entries, tiny, tracer
    )
    peak_rss_mb = _peak_rss_mb()  # before the solo oracle adds its own servers

    reference = solo_streams(model, workload, tokenizer, entries, tiny) if solo else {}
    verdicts = harness.check_pass(entries, result, reference)
    if audit != "clean":
        verdicts = [v or audit for v in verdicts]
    streams = [t.token_ids for t in result.traces]
    scores = [e.quality(s) for e, s in zip(entries, streams)]
    scored = [s for s in scores if s is not None]
    record = {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_done - origin,
        "wall_s": result.wall_s,
        "requests": len(entries),
        "generated_tokens": result.generated_tokens,
        "tokens_per_s": result.generated_tokens / result.wall_s,
        "ttft_ms": [t.ttft_ms for t in result.traces],
        "request_ms": [t.request_ms for t in result.traces],
        "mean_gap_ms": [mean(t.gaps_ms) for t in result.traces],
        "gaps_ms": [g for t in result.traces for g in t.gaps_ms],
        "quality_score": mean(scored),
        "verdicts": verdicts,
        "audit": audit,
        "solo_checked": sorted(reference),
        "request_digests": [_request_digest(s) for s in streams],
        "stream_digest": harness.stream_digest(streams),
        "inputs_digest": inputs_digest(entries),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        metrics, work = layer_metrics(
            workload, model, tokenizer, entries, result, observed, tracer
        )
        metrics["bench.quality_score"] = record["quality_score"]
        record["layers"] = metrics
        record["work"] = work
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            layers.write_chrome_trace(trace_path, tracer.spans(), origin)
            record["trace_file"] = str(trace_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--solo", action="store_true")
    parser.add_argument("--process-start", type=float, default=None)
    parser.add_argument("--trace-path", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run_child(
        args.workload, args.seed, args.mode, args.tiny, args.solo,
        args.process_start, args.trace_path,
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
