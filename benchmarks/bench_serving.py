"""Serving benchmarks: chunked prefill, speculative decode.

Two sub-benchmarks share one timed trace-replay harness and emit a
single ``BENCH_serving.json`` so each PR leaves a recorded perf
trajectory:

1. **Chunked prefill** — replays a mixed trace (steady short-prompt
   decode traffic plus one long-prompt arrival) through a monolithic
   server and a chunked one (``prefill_chunk_tokens``/``max_step_tokens``
   set); reports wall-clock TTFT p50/p95, queueing delay, decode-step
   latency percentiles and per-step token-budget accounting. The long
   prefill freezes the monolithic decode wave for one giant step —
   head-of-line blocking — while the chunked server streams it in under
   the step budget, so decode-step p95 must improve (CI gates on
   ``--min-step-gain``). ``ttft_p95_gain`` is reported, not gated: on
   this trace TTFT p95 is the long prompt's *own* TTFT, which chunking
   stretches over several steps by design.

2. **Speculative decode** — replays a mixed trace (periodic prompts the
   distilled draft model predicts nearly perfectly, plus unpredictable
   fillers) with ``spec_decode_k`` off and on; reports the acceptance
   rate, tokens per verify pass, decode-phase tokens/s and the
   speculative-over-baseline ``speedup``. Accepted streams are verified
   bit-identical to the non-speculative run. CI gates on
   ``--min-accept-rate`` / ``--min-spec-speedup``; ``--spec-smoke``
   runs only this sub-benchmark as a fast gate lane.

Every mode entry carries the meter's makespan *and* busy-period
throughput (trace replay jumps the clock across arrival gaps, which
deflates makespan-based tokens/s on sparse traces) plus step-clock TTFT
and queueing-delay percentiles. Both sub-benchmarks refuse to report a
win built on wrong tokens: the compared modes' streams are checked bit
for bit and the exit status is non-zero on mismatch.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke \
        --min-step-gain 1.0                                      # CI gate
    PYTHONPATH=src python benchmarks/bench_serving.py \
        --policy quest --long-prompt-len 1024 --out BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py --spec-smoke \
        --min-accept-rate 0.5 --min-spec-speedup 1.0    # spec gate lane
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.api.config import EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.retrieval.registry import resolve_policy_name
from repro.serving.server import SpeContextServer
from repro.serving.trace import TraceEntry


def build_model(args) -> tuple[TransformerLM, SyntheticTokenizer]:
    rng = np.random.default_rng(args.seed)
    tokenizer = SyntheticTokenizer(vocab_size=args.vocab)
    config = tiny_test_config(n_layers=args.layers, vocab_size=args.vocab)
    return TransformerLM(build_recall_model(config, tokenizer, rng)), tokenizer


def filler_request(
    tokenizer: SyntheticTokenizer, seed: int, prompt_len: int, max_new: int, args
) -> GenerationRequest:
    prompt_rng = np.random.default_rng(seed)
    ids = [int(t) for t in tokenizer.random_filler_ids(prompt_rng, prompt_len)]
    return GenerationRequest(
        np.array([tokenizer.bos_id] + ids),
        sampling=SamplingParams(max_new_tokens=max_new),
        policy=args.policy,
        budget=args.budget,
    )


def build_mixed_workload(
    model: TransformerLM, tokenizer: SyntheticTokenizer, args
) -> list[TraceEntry]:
    """Steady short-prompt decode traffic plus one long-prompt arrival.

    A few shorts co-arrive with (just before) the long prompt: in the
    monolithic server their first tokens queue behind its entire inline
    prefill, which is exactly the head-of-line stall chunked prefill
    removes. The rest arrive at a steady cadence before and after.
    """
    entries: list[TraceEntry] = []
    # Shorts queued at the long prompt's arrival step (capped so the
    # trace always holds exactly short_sessions short requests).
    burst = min(3, args.short_sessions)
    steady = args.short_sessions - burst
    # A compact trace keeps the total step count small enough that the
    # monolithic prefill stall carries real weight in the p95s instead of
    # hiding beyond them in a long tail of easy steps.
    arrivals = [min(i, args.long_arrival) for i in range(steady)]
    arrivals += [args.long_arrival] * burst
    for i, arrival in enumerate(sorted(arrivals)):
        entries.append(
            TraceEntry(
                arrival_step=arrival,
                request=filler_request(
                    tokenizer,
                    args.seed + 500 + i,
                    args.short_prompt_len,
                    args.short_max_new,
                    args,
                ),
            )
        )
    entries.append(
        TraceEntry(
            arrival_step=args.long_arrival,
            request=filler_request(
                tokenizer, args.seed + 999, args.long_prompt_len, 8, args
            ),
        )
    )
    return entries


def build_spec_workload(tokenizer: SyntheticTokenizer, args) -> list[TraceEntry]:
    """Mixed speculative-decoding trace: periodic sessions plus fillers.

    Periodic prompts repeat a short content pattern, so the distilled
    draft model (an induction head) predicts their continuations almost
    perfectly; filler prompts are unpredictable and keep the acceptance
    rate honest. All prompts share one length and the dense ``full``
    policy so the verify fast path sees aligned rows.
    """
    entries: list[TraceEntry] = []
    for i in range(args.spec_periodic_sessions):
        period = 6 + (i % 4) * 2
        prompt_rng = np.random.default_rng(args.seed + 700 + i)
        pattern = [int(t) for t in tokenizer.random_content_ids(prompt_rng, period)]
        reps, rem = divmod(args.spec_prompt_len - 1, period)
        ids = pattern * reps + pattern[:rem]
        entries.append(
            TraceEntry(
                arrival_step=0,
                request=GenerationRequest(
                    np.array([tokenizer.bos_id] + ids),
                    sampling=SamplingParams(max_new_tokens=args.spec_max_new),
                    policy="full",
                ),
            )
        )
    for i in range(args.spec_filler_sessions):
        prompt_rng = np.random.default_rng(args.seed + 800 + i)
        ids = [
            int(t)
            for t in tokenizer.random_content_ids(
                prompt_rng, args.spec_prompt_len - 1
            )
        ]
        entries.append(
            TraceEntry(
                arrival_step=0,
                request=GenerationRequest(
                    np.array([tokenizer.bos_id] + ids),
                    sampling=SamplingParams(max_new_tokens=args.spec_max_new),
                    policy="full",
                ),
            )
        )
    return entries


def clone_entry(entry: TraceEntry) -> TraceEntry:
    return TraceEntry(
        arrival_step=entry.arrival_step,
        request=GenerationRequest(
            entry.request.prompt_ids.copy(),
            sampling=entry.request.sampling,
            policy=entry.request.policy,
            budget=entry.request.budget,
            priority=entry.request.priority,
        ),
    )


def replay_timed(
    model: TransformerLM, trace: list[TraceEntry], config: EngineConfig
) -> dict:
    """Replay ``trace`` through a fresh server, wall-clock-timing each step.

    Returns raw per-run data: step records (wall seconds, prefill tokens
    computed, decode tokens emitted), wall-clock TTFT per request
    (submission to first stream event), outputs and the meter.
    """
    server = SpeContextServer(model, config)
    entries = sorted((clone_entry(e) for e in trace), key=lambda e: e.arrival_step)
    submitted = 0
    steps: list[dict] = []
    submit_wall: dict[int, float] = {}
    first_token_wall: dict[int, float] = {}
    while submitted < len(entries) or server.has_unfinished:
        while (
            submitted < len(entries)
            and entries[submitted].arrival_step <= server.clock
        ):
            request_id = server.add_request(entries[submitted].request)
            submit_wall[request_id] = time.perf_counter()
            submitted += 1
        if not server.has_unfinished:
            server.advance_clock_to(entries[submitted].arrival_step)
            continue
        start = time.perf_counter()
        server.step()
        end = time.perf_counter()
        events = server.pop_stream_events()
        for event in events:
            first_token_wall.setdefault(event.request_id, end)
        steps.append(
            {
                "wall_s": end - start,
                "prefill_tokens": server.last_step_prefill_tokens,
                "decode_tokens": len(events),
            }
        )
    outputs = sorted(server.outputs, key=lambda o: o.request_id)
    ttft_wall_s = {
        rid: first_token_wall[rid] - submit_wall[rid] for rid in first_token_wall
    }
    return {
        "server": server,
        "steps": steps,
        "outputs": outputs,
        "ttft_wall_s": ttft_wall_s,
    }


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def mode_metrics(run: dict, config: EngineConfig) -> dict:
    """Aggregate one replay into the reported per-mode entry."""
    server = run["server"]
    meter = server.meter
    steps = run["steps"]
    wall = np.array([s["wall_s"] for s in steps])
    prefill_tokens = np.array([s["prefill_tokens"] for s in steps])
    decode_tokens = np.array([s["decode_tokens"] for s in steps])
    scheduled = prefill_tokens + decode_tokens
    # Two views of "decode steps": the throughput ratio compares *pure*
    # decode waves (prefill work is identical in both compared modes and
    # would dilute the speedup toward 1.0), while the latency
    # percentiles cover every step that emitted a token — in monolithic
    # mode an admitting step carries a whole prompt prefill and lands in
    # exactly the decode percentiles it inflates.
    pure_decode_mask = (decode_tokens > 0) & (prefill_tokens == 0)
    decode_mask = decode_tokens > 0
    generated = sum(len(o.token_ids) for o in run["outputs"])
    wall_s = float(wall.sum())
    pure_decode_wall = wall[pure_decode_mask]
    decode_wall = wall[decode_mask]
    ttfts_ms = [1e3 * t for t in run["ttft_wall_s"].values()]
    return {
        "steps": len(steps),
        "generated_tokens": generated,
        "wall_s": wall_s,
        "tokens_per_s": generated / wall_s if wall_s > 0 else 0.0,
        "decode_steps": int(pure_decode_mask.sum()),
        "decode_tokens_per_s": (
            float(decode_tokens[pure_decode_mask].sum())
            / float(pure_decode_wall.sum())
            if pure_decode_wall.sum() > 0
            else 0.0
        ),
        "step_latency_ms": {
            "mean": float(wall.mean() * 1e3) if len(wall) else 0.0,
            "p50": _pct(wall * 1e3, 50),
            "p95": _pct(wall * 1e3, 95),
        },
        "decode_step_latency_ms": {
            "p50": _pct(decode_wall * 1e3, 50),
            "p95": _pct(decode_wall * 1e3, 95),
        },
        "ttft_ms": {
            "mean": float(np.mean(ttfts_ms)) if ttfts_ms else 0.0,
            "p50": _pct(ttfts_ms, 50),
            "p95": _pct(ttfts_ms, 95),
        },
        "ttft_steps": {
            "p50": meter.ttft_percentile(50),
            "p95": meter.ttft_percentile(95),
        },
        "queueing_delay_steps": {
            "mean": meter.mean_queueing_delay_s,
            "p50": meter.queueing_delay_percentile(50),
            "p95": meter.queueing_delay_percentile(95),
        },
        "tokens_per_step": meter.tokens_per_second,
        "busy_tokens_per_step": meter.busy_tokens_per_second,
        "step_tokens": {
            "budget": config.max_step_tokens,
            "mean": float(scheduled.mean()) if len(scheduled) else 0.0,
            "max": int(scheduled.max()) if len(scheduled) else 0,
        },
        "token_streams": [o.token_ids for o in run["outputs"]],
    }


def run_best_of(model, trace, config: EngineConfig, repeats: int) -> dict:
    best = None
    for _ in range(repeats):
        run = mode_metrics(replay_timed(model, trace, config), config)
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    return best


def bench_spec_decode(model, tokenizer, args) -> dict:
    """Sub-benchmark 2: speculative vs plain decode on the mixed spec trace.

    Both modes replay the identical trace; the speculative run drafts
    with the distilled model and must stream bit-identical tokens — the
    comparison isolates the verify-wave throughput win, not output
    drift. Acceptance telemetry comes from the server's own counters.
    """
    trace = build_spec_workload(tokenizer, args)
    base = dict(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        max_concurrency=len(trace),
        seed=args.seed,
    )
    results: dict[str, dict] = {}
    spec_stats = None
    for mode, k in (("baseline", 0), ("speculative", args.spec_k)):
        config = EngineConfig(**base, spec_decode_k=k)
        best = None
        best_run = None
        for _ in range(args.repeats):
            run = replay_timed(model, trace, config)
            metrics = mode_metrics(run, config)
            # Best-of selects on the gated metric: decode-phase
            # throughput is what the speedup ratio compares, and taking
            # each mode's best run cancels one-sided scheduler noise
            # that a wall-clock pick would leak into the ratio.
            if (
                best is None
                or metrics["decode_tokens_per_s"] > best["decode_tokens_per_s"]
            ):
                best, best_run = metrics, run
        results[mode] = best
        if k > 0:
            spec_stats = best_run["server"].spec_stats
    streams_identical = (
        results["baseline"].pop("token_streams")
        == results["speculative"].pop("token_streams")
    )
    speedup = (
        results["speculative"]["decode_tokens_per_s"]
        / results["baseline"]["decode_tokens_per_s"]
        if results["baseline"]["decode_tokens_per_s"] > 0
        else 0.0
    )
    return {
        "workload": {
            "periodic_sessions": args.spec_periodic_sessions,
            "filler_sessions": args.spec_filler_sessions,
            "prompt_len": args.spec_prompt_len,
            "max_new_tokens": args.spec_max_new,
            "policy": "full",
            "spec_k": args.spec_k,
        },
        "baseline": results["baseline"],
        "speculative": results["speculative"],
        "acceptance_rate": spec_stats.acceptance_rate,
        "spec_steps": spec_stats.spec_steps,
        "drafted": spec_stats.drafted,
        "accepted": spec_stats.accepted,
        "tokens_per_spec_step": spec_stats.tokens_per_spec_step,
        "speedup": speedup,
        "streams_identical": streams_identical,
    }


def bench_chunked_prefill(model, tokenizer, args) -> dict:
    """Sub-benchmark 1: chunked vs monolithic prefill on the mixed trace.

    Both servers run the ``sjf`` scheduler so short prompts order ahead
    of the long one at admission *and* (chunked) in the prefill phase —
    the comparison isolates inline-vs-chunked prefill, not queue order.
    """
    trace = build_mixed_workload(model, tokenizer, args)
    base = dict(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        max_concurrency=args.short_sessions + 1,
        seed=args.seed,
        scheduler="sjf",
    )
    monolithic = run_best_of(model, trace, EngineConfig(**base), args.repeats)
    chunked_config = EngineConfig(
        **base,
        prefill_chunk_tokens=args.prefill_chunk_tokens,
        max_step_tokens=args.max_step_tokens,
    )
    chunked = run_best_of(model, trace, chunked_config, args.repeats)
    streams_identical = (
        monolithic.pop("token_streams") == chunked.pop("token_streams")
    )

    def gain(metric_path) -> float:
        mono, chunk = monolithic, chunked
        for key in metric_path:
            mono, chunk = mono[key], chunk[key]
        return mono / chunk if chunk > 0 else 0.0

    return {
        "workload": {
            "short_sessions": args.short_sessions,
            "short_prompt_len": args.short_prompt_len,
            "short_max_new": args.short_max_new,
            "long_prompt_len": args.long_prompt_len,
            "long_arrival": args.long_arrival,
            "prefill_chunk_tokens": args.prefill_chunk_tokens,
            "max_step_tokens": args.max_step_tokens,
            "scheduler": "sjf",
        },
        "monolithic": monolithic,
        "chunked": chunked,
        "ttft_p95_gain": gain(("ttft_ms", "p95")),
        "decode_step_p95_gain": gain(("decode_step_latency_ms", "p95")),
        "streams_identical": streams_identical,
    }


def print_spec_report(spec_report: dict) -> None:
    for mode in ("baseline", "speculative"):
        r = spec_report[mode]
        print(
            f"{mode:>11}: {r['decode_tokens_per_s']:7.0f} decode tok/s | "
            f"{r['tokens_per_s']:7.0f} end-to-end tok/s | "
            f"p50 step {r['step_latency_ms']['p50']:.2f} ms"
        )
    print(
        f"spec decode: {spec_report['speedup']:.2f}x decode | "
        f"acceptance {spec_report['acceptance_rate']:.2f} "
        f"({spec_report['accepted']}/{spec_report['drafted']} drafted) | "
        f"{spec_report['tokens_per_spec_step']:.2f} tokens/verify pass | "
        f"streams identical: {spec_report['streams_identical']}"
    )


def spec_gate(spec_report: dict, args) -> int:
    if not spec_report["streams_identical"]:
        print(
            "FAIL: speculative and baseline token streams differ",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_accept_rate is not None
        and spec_report["acceptance_rate"] < args.min_accept_rate
    ):
        print(
            f"FAIL: acceptance rate {spec_report['acceptance_rate']:.2f} "
            f"below required {args.min_accept_rate:.2f}",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_spec_speedup is not None
        and spec_report["speedup"] < args.min_spec_speedup
    ):
        print(
            f"FAIL: speculative speedup {spec_report['speedup']:.2f}x below "
            f"required {args.min_spec_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_serving",
        description="Serving benchmarks: chunked prefill, speculative "
        "decode.",
    )
    parser.add_argument("--policy", default="streaming")
    parser.add_argument("--budget", type=int, default=64)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--vocab", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed replays per mode; best run is reported")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    # ---- chunked-prefill sub-benchmark ----
    parser.add_argument("--short-sessions", type=int, default=8,
                        help="steady short-prompt requests in the mixed trace")
    parser.add_argument("--short-prompt-len", type=int, default=16)
    parser.add_argument("--short-max-new", type=int, default=10)
    parser.add_argument("--long-prompt-len", type=int, default=768,
                        help="the head-of-line-blocking long prompt")
    parser.add_argument("--long-arrival", type=int, default=4,
                        help="arrival step of the long prompt")
    parser.add_argument("--prefill-chunk-tokens", type=int, default=32)
    parser.add_argument("--max-step-tokens", type=int, default=48)
    parser.add_argument("--min-step-gain", type=float, default=None,
                        help="exit non-zero if monolithic/chunked decode-step "
                        "p95 falls below this ratio (1.0 = chunking must not "
                        "worsen head-of-line blocking)")
    # ---- speculative-decoding sub-benchmark ----
    parser.add_argument("--spec-k", type=int, default=4,
                        help="draft tokens per verify pass in the "
                        "speculative mode")
    parser.add_argument("--spec-periodic-sessions", type=int, default=6,
                        help="draft-friendly periodic prompts in the "
                        "speculative trace")
    parser.add_argument("--spec-filler-sessions", type=int, default=2,
                        help="unpredictable prompts keeping the acceptance "
                        "rate honest")
    parser.add_argument("--spec-prompt-len", type=int, default=49)
    parser.add_argument("--spec-max-new", type=int, default=96)
    parser.add_argument("--spec-smoke", action="store_true",
                        help="run only the speculative sub-benchmark "
                        "(fast CI gate lane)")
    parser.add_argument("--min-accept-rate", type=float, default=None,
                        help="exit non-zero if the draft acceptance rate "
                        "falls below this fraction")
    parser.add_argument("--min-spec-speedup", type=float, default=None,
                        help="exit non-zero if the speculative/baseline "
                        "decode-phase tokens/s ratio falls below this")
    parser.add_argument("--out", default="BENCH_serving.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.long_prompt_len = min(args.long_prompt_len, 288)
        args.short_sessions = min(args.short_sessions, 8)

    try:
        args.policy = resolve_policy_name(args.policy)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2

    model, tokenizer = build_model(args)

    if args.spec_smoke:
        spec_report = bench_spec_decode(model, tokenizer, args)
        report = {
            "benchmark": "serving_spec_decode_smoke",
            "spec_decode": spec_report,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print_spec_report(spec_report)
        print(f"wrote {args.out}")
        return spec_gate(spec_report, args)

    chunked_report = bench_chunked_prefill(model, tokenizer, args)
    spec_report = bench_spec_decode(model, tokenizer, args)

    report = {
        "benchmark": "serving",
        "smoke": args.smoke,
        "workload": {
            "policy": args.policy,
            "budget": args.budget,
            "layers": args.layers,
            "vocab": args.vocab,
            "seed": args.seed,
            "repeats": args.repeats,
        },
        "chunked_prefill": chunked_report,
        "spec_decode": spec_report,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for mode in ("monolithic", "chunked"):
        r = chunked_report[mode]
        print(
            f"{mode:>10}: ttft p95 {r['ttft_ms']['p95']:8.2f} ms | "
            f"decode step p95 {r['decode_step_latency_ms']['p95']:.2f} ms | "
            f"max step tokens {r['step_tokens']['max']}"
        )
    print(
        f"chunked prefill: {chunked_report['ttft_p95_gain']:.2f}x ttft p95, "
        f"{chunked_report['decode_step_p95_gain']:.2f}x decode step p95  |  "
        f"streams identical: {chunked_report['streams_identical']}"
    )
    print_spec_report(spec_report)
    print(f"wrote {args.out}")

    if not chunked_report["streams_identical"]:
        print(
            "FAIL: chunked and monolithic prefill token streams differ",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_step_gain is not None
        and chunked_report["decode_step_p95_gain"] < args.min_step_gain
    ):
        print(
            f"FAIL: chunked-prefill decode-step p95 gain "
            f"{chunked_report['decode_step_p95_gain']:.2f}x below required "
            f"{args.min_step_gain:.2f}x",
            file=sys.stderr,
        )
        return 1
    return spec_gate(spec_report, args)


if __name__ == "__main__":
    sys.exit(main())
