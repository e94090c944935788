"""CLI entry point: drive the continuous-batching server end to end.

Builds a constructed associative-recall model, submits a mixed-policy
request queue through the request-level API, and prints per-request
results plus the throughput meter summary.

Usage::

    specontext-serve                      # 8 requests, mixed policies
    specontext-serve --requests 12 --concurrency 4 --budget 96
    specontext-serve --policies specontext,quest --max-new-tokens 8
    specontext-serve --pool-blocks 40 --scheduler priority  # force pressure
    specontext-serve --replicas 4 --router prefix_affinity  # cluster mode
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.retrieval.registry import available_policies, resolve_policy_name
from repro.serving import registry
from repro.serving.engine import make_executor
from repro.utils.tables import format_table
from repro.utils.units import human_bytes
from repro.workloads.base import weave_context

DEFAULT_POLICY_MIX = "specontext,quest,h2o,shadowkv,clusterkv,streaming,sliding,full"


def _recall_prompt(
    tokenizer: SyntheticTokenizer, rng: np.random.Generator, n_filler: int
) -> np.ndarray:
    """Key/value fact buried in filler, then the matching question."""
    entities = [int(t) for t in tokenizer.random_content_ids(rng, 2)]
    ids, _ = weave_context(
        tokenizer, rng, [entities], context_len=n_filler + len(entities) + 1
    )
    ids.extend([tokenizer.question_id, entities[0]])
    return np.array(ids)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="specontext-serve",
        description="Serve a mixed-policy request queue over the "
        "functional SpeContext model.",
    )
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument(
        "--policies",
        default=DEFAULT_POLICY_MIX,
        help="comma-separated policy names cycled over the queue "
        f"(available: {', '.join(available_policies())})",
    )
    parser.add_argument("--budget", type=int, default=96)
    parser.add_argument("--max-new-tokens", type=int, default=8)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--prompt-len", type=int, default=300)
    parser.add_argument("--vocab", type=int, default=512)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block-size", type=int, default=16,
                        help="tokens per shared KV-pool block")
    parser.add_argument("--pool-blocks", type=int, default=None,
                        help="pool capacity in blocks (default: sized from "
                        "the adaptive manager; small values force "
                        "preemption)")
    parser.add_argument("--scheduler", default="fcfs",
                        help="admission/preemption policy "
                        f"(available: {', '.join(registry.available('scheduler'))})")
    parser.add_argument("--admission", default="accept_all",
                        help="overload admission controller; anything but "
                        "accept_all sheds excess load with typed 429s "
                        f"(available: {', '.join(registry.available('admission'))})")
    parser.add_argument("--preempt-mode", default="swap",
                        choices=("swap", "recompute"))
    parser.add_argument("--no-prefix-cache", action="store_true",
                        help="disable prompt prefix-block reuse")
    parser.add_argument("--sequential-decode", action="store_true",
                        help="decode in waves of one session instead of "
                        "fused server-wide waves")
    parser.add_argument("--kv-dtype", default="float64",
                        choices=("float32", "float64"),
                        help="KV cache storage precision")
    parser.add_argument("--prefill-chunk-tokens", type=int, default=None,
                        help="stream each prompt's prefill in chunks of at "
                        "most this many tokens instead of one inline "
                        "prefill at admission (kills head-of-line "
                        "blocking; bit-identical tokens)")
    parser.add_argument("--max-step-tokens", type=int, default=None,
                        help="per-step token budget shared by the decode "
                        "wave and prefill chunks (requires "
                        "--prefill-chunk-tokens)")
    parser.add_argument("--spec-decode-k", type=int, default=0,
                        help="speculative decoding draft length: draft up "
                        "to K tokens per step with the distilled model "
                        "and verify them in one fused target pass "
                        "(greedy sessions only; 0 disables)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="server replicas behind one executor")
    parser.add_argument("--router", default="prefix_affinity",
                        help="cluster routing policy "
                        f"(available: {', '.join(registry.available('router'))})")
    parser.add_argument("--stickiness-tokens", type=int, default=16,
                        help="minimum cached-prefix match for the "
                        "prefix-affinity router to stick to a replica")
    parser.add_argument("--roles", default=None,
                        help="comma-separated per-replica roles "
                        "(prefill/decode/mixed), one per replica; enables "
                        "disaggregated serving with prefill->decode "
                        "handoffs (default: all mixed)")
    parser.add_argument("--rebalance-every", type=int, default=0,
                        help="run a live-migration rebalance pass every N "
                        "cluster steps (0 disables)")
    parser.add_argument("--rebalance-ratio", type=float, default=1.5,
                        help="load imbalance ratio (max/min) that triggers "
                        "a migration during a rebalance pass")
    parser.add_argument("--max-migrations-per-pass", type=int, default=4,
                        help="cap on sessions moved per rebalance pass")
    parser.add_argument("--serve-http", action="store_true",
                        help="serve an OpenAI-style HTTP + SSE frontend "
                        "instead of running the built-in request queue")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve-http")
    parser.add_argument("--port", type=int, default=8000,
                        help="bind port for --serve-http")
    parser.add_argument("--executor", default="inproc",
                        choices=("inproc", "multiproc"),
                        help="how replicas run: all in-process, or one "
                        "child process per replica stepped with overlap")
    args = parser.parse_args(argv)

    try:
        policies = [resolve_policy_name(p) for p in args.policies.split(",") if p]
        args.scheduler = registry.resolve("scheduler", args.scheduler)
        args.router = registry.resolve("router", args.router)
        args.admission = registry.resolve("admission", args.admission)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2
    if not policies:
        print("--policies needs at least one policy name", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    tokenizer = SyntheticTokenizer(vocab_size=args.vocab)
    config = tiny_test_config(n_layers=args.layers, vocab_size=args.vocab)
    model = TransformerLM(build_recall_model(config, tokenizer, rng))
    engine_config = EngineConfig(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        max_concurrency=args.concurrency,
        seed=args.seed,
        block_size=args.block_size,
        pool_blocks=args.pool_blocks,
        enable_prefix_cache=not args.no_prefix_cache,
        preempt_mode=args.preempt_mode,
        scheduler=args.scheduler,
        batched_decode=not args.sequential_decode,
        kv_dtype=args.kv_dtype,
        prefill_chunk_tokens=args.prefill_chunk_tokens,
        max_step_tokens=args.max_step_tokens,
        spec_decode_k=args.spec_decode_k,
        admission=args.admission,
    )
    roles = None
    if args.roles:
        roles = tuple(r.strip() for r in args.roles.split(",") if r.strip())
    try:
        cluster = ClusterConfig(
            n_replicas=args.replicas,
            router=args.router,
            stickiness_tokens=args.stickiness_tokens,
            executor=args.executor,
            roles=roles,
            rebalance_every=args.rebalance_every,
            rebalance_ratio=args.rebalance_ratio,
            max_migrations_per_pass=args.max_migrations_per_pass,
        )
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    if args.serve_http:
        import asyncio

        from repro.serving.http import build_http_server, serve_async
        http_server = build_http_server(model, tokenizer, engine_config, cluster)
        print(
            f"serving {http_server.model_name} on "
            f"http://{args.host}:{args.port} ({args.executor} executor, "
            f"{args.replicas} worker(s), {args.router} routing)"
        )
        asyncio.run(serve_async(http_server, args.host, args.port))
        return 0

    try:
        target = make_executor(model, engine_config, cluster)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    with target:
        return _run_queue(target, args, config, tokenizer, policies)


def _run_queue(target, args, config, tokenizer, policies) -> int:
    """Submit the built-in request queue to ``target`` and print the report.

    ``target`` is an executor for every ``--replicas`` N (1 included) —
    its replica pools may live in child processes, so everything
    per-replica is read from ``snapshots()``.
    """
    print(
        f"model: {config.n_layers}-layer {config.attention.value}, "
        f"vocab {config.vocab_size}  |  budget {args.budget}, "
        f"concurrency {args.concurrency}  |  pool "
        f"{args.block_size}-token blocks per replica, "
        f"{args.scheduler} scheduling  |  "
        f"{'sequential' if args.sequential_decode else 'batched'} decode, "
        f"{args.kv_dtype} KV"
        + (
            f"  |  chunked prefill ({args.prefill_chunk_tokens} tokens"
            + (
                f", {args.max_step_tokens}-token step budget"
                if args.max_step_tokens is not None
                else ""
            )
            + ")"
            if args.prefill_chunk_tokens is not None
            else ""
        )
        + (
            f"  |  speculative decode (k={args.spec_decode_k})"
            if args.spec_decode_k > 0
            else ""
        )
        + f"  |  {args.replicas} replica{'s' if args.replicas > 1 else ''} "
        f"({target.kind}), {args.router} routing"
    )

    for i in range(args.requests):
        prompt = _recall_prompt(
            tokenizer, np.random.default_rng(args.seed + 1000 + i), args.prompt_len
        )
        try:
            target.add_request(
                GenerationRequest(
                    prompt,
                    sampling=SamplingParams(max_new_tokens=args.max_new_tokens),
                    policy=policies[i % len(policies)],
                )
            )
        except ValueError as err:
            print(err, file=sys.stderr)  # e.g. prompt larger than the pool
            return 2

    outputs = target.run()
    rows = []
    for output in outputs:
        rows.append([
            output.request_id,
            policies[output.request_id % len(policies)],
            output.n_generated,
            output.finish_reason,
            human_bytes(output.stats.bytes_transferred),
            f"{output.stats.mean_selection_overlap:.0%}",
            len(output.stats.offload_events),
            output.stats.preemptions,
            output.stats.prefix_reused_tokens,
        ])
    print()
    print(format_table(
        ["req", "policy", "tokens", "finish", "PCIe bytes", "overlap",
         "offloads", "preempts", "prefix hit"],
        rows,
        title=f"{len(outputs)} requests, continuous batching",
    ))
    snapshots = target.snapshots()
    meter = target.stats()
    pools = {i: s.pool for i, s in snapshots.items()}
    specs = [s.spec_stats for s in snapshots.values()]
    print(
        f"\nmeter: {len(meter.finished)} finished, "
        f"{meter.generated_tokens} tokens over {meter.makespan_s:.0f} steps "
        f"({meter.tokens_per_second:.2f} tokens/step, "
        f"{meter.busy_tokens_per_second:.2f} busy)"
    )
    print(
        f"latency: ttft p50 {meter.ttft_percentile(50):.0f} / "
        f"p95 {meter.ttft_percentile(95):.0f} steps, queueing delay "
        f"p95 {meter.queueing_delay_percentile(95):.0f} steps"
    )
    print(
        f"pool: {sum(s.allocated for s in pools.values())} blocks allocated "
        f"({sum(s.prefill_blocks_allocated for s in pools.values())} prefill, "
        f"{sum(s.prefix_blocks_reused for s in pools.values())} reused via "
        f"prefix cache), {len(target.preemption_log)} preemptions"
    )
    if args.spec_decode_k > 0:
        drafted = sum(s.drafted for s in specs)
        accepted = sum(s.accepted for s in specs)
        print(
            f"spec: {sum(s.spec_steps for s in specs)} verify passes, "
            f"{drafted} drafted, {accepted} accepted "
            f"({accepted / drafted if drafted else 0.0:.0%} acceptance)"
        )
    routing = target.routing
    rows = [
        [
            i,
            routing.routed[i],
            routing.affinity_hits[i],
            routing.affinity_misses[i],
            routing.cold[i],
            pools[i].prefix_blocks_reused if i in pools else "-",
        ]
        for i in range(target.n_workers)
    ]
    print()
    print(format_table(
        ["replica", "routed", "hits", "misses", "cold", "blocks reused"],
        rows,
        title=f"{args.router} routing, {routing.hit_rate:.0%} affinity hit "
        "rate (non-cold)",
    ))
    if target.migrations:
        handoffs = sum(
            1 for m in target.migrations
            if m.reason == "prefill_handoff"
        )
        print(
            f"migrations: {len(target.migrations)} sessions moved "
            f"live ({handoffs} prefill handoffs, "
            f"{len(target.migrations) - handoffs} rebalance)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
