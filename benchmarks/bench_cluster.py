"""Cluster-serving benchmark: prefix-affinity routing vs locality-blind.

Replays one seeded shared-system-prompt trace — G prompt groups, each
group sharing a long system prefix ahead of a unique user suffix, arrival
order shuffled so group members interleave — through identical
executors (:func:`repro.serving.engine.make_executor`) that differ only
in the router, and reports per-router:

- **cluster-wide prefix-reused tokens** (the number routing is supposed
  to move): ``round_robin`` scatters each group over the replicas, so a
  member only hits the prefix cache when it happens to land where an
  earlier member ran; ``prefix_affinity`` probes every replica's cache
  and sticks members to their group's replica, turning per-replica
  caches into one cluster-wide asset;
- wall-clock and step-clock TTFT percentiles (reused prefix blocks skip
  real prefill compute, so affinity routing cuts wall TTFT);
- routing-stats tables (per-replica routed / affinity hits / misses /
  cold) and merged-meter throughput.

A second sub-benchmark measures **live KV migration**: the same
``prefix_affinity`` router replayed over a *skewed* trace (one hot
shared-prefix group that affinity piles onto a single replica), with
and without a periodic rebalance pass that drains whole sessions to
idle replicas via :meth:`~repro.serving.server.SpeContextServer
.export_session`/``import_session``. Reported: per-step load variance
across replicas and wall-clock tail TTFT, gated by
``--min-balance-gain``.

The compared runs must agree token for token: per-request streams are
bit-identical across routers — and across migrations — by the
exact-streams contract (placement never changes tokens), and the exit
status is non-zero if they differ. CI gates ``--min-affinity-gain`` on
the affinity/round-robin ratio of cluster-wide prefix-reused tokens
and ``--min-balance-gain`` on the load-variance reduction.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py             # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke \
        --min-affinity-gain 1.0 --min-balance-gain 1.0 \
        --out BENCH_cluster.json                                  # CI gate
    PYTHONPATH=src python benchmarks/bench_cluster.py --replicas 8 \
        --groups 6 --group-size 8 --system-len 160
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time

import numpy as np

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.serving.engine import make_executor
from repro.serving.trace import TraceEntry, poisson_trace

ROUTERS = ("round_robin", "least_loaded", "prefix_affinity")


def build_model(args) -> tuple[TransformerLM, SyntheticTokenizer]:
    rng = np.random.default_rng(args.seed)
    tokenizer = SyntheticTokenizer(vocab_size=args.vocab)
    config = tiny_test_config(n_layers=args.layers, vocab_size=args.vocab)
    return TransformerLM(build_recall_model(config, tokenizer, rng)), tokenizer


def _grouped_trace(
    tokenizer: SyntheticTokenizer, args, group_sizes: list[int]
) -> list[TraceEntry]:
    rng = np.random.default_rng(args.seed)
    prompts = []
    member_base = 0
    for group, size in enumerate(group_sizes):
        system_rng = np.random.default_rng(args.seed + 10_000 + group)
        system = [
            int(t)
            for t in tokenizer.random_filler_ids(system_rng, args.system_len)
        ]
        for member in range(size):
            suffix_rng = np.random.default_rng(
                args.seed + 20_000 + member_base + member
            )
            suffix = [
                int(t)
                for t in tokenizer.random_filler_ids(suffix_rng, args.suffix_len)
            ]
            prompts.append(np.array([tokenizer.bos_id] + system + suffix))
        member_base += size
    order = rng.permutation(len(prompts))
    requests = [
        GenerationRequest(
            prompts[i],
            sampling=SamplingParams(max_new_tokens=args.max_new_tokens),
            policy=args.policy,
            budget=args.budget,
        )
        for i in order
    ]
    return poisson_trace(rng, requests, args.mean_interarrival)


def build_shared_prefix_workload(
    tokenizer: SyntheticTokenizer, args
) -> list[TraceEntry]:
    """G groups x M members, each group sharing a long system prompt.

    Every member's prompt is ``BOS + group system prefix + unique user
    suffix``; the member order is a seeded shuffle, so consecutive
    arrivals usually belong to *different* groups — exactly the
    interleaving that defeats cyclic placement — and Poisson arrival
    gaps let earlier members publish their prefix blocks before later
    members of the same group are routed.
    """
    return _grouped_trace(tokenizer, args, [args.group_size] * args.groups)


def build_skewed_workload(
    tokenizer: SyntheticTokenizer, args
) -> list[TraceEntry]:
    """The same shape with one *hot* group dominating the arrivals.

    Prefix-affinity routing sticks every hot-group member to the one
    replica holding the shared prefix, which is exactly right for cache
    reuse and exactly wrong for load: that replica queues while its
    peers idle. This is the trace the live-migration rebalance pass is
    measured on.
    """
    sizes = [args.hot_group_size] + [args.group_size] * (args.groups - 1)
    return _grouped_trace(tokenizer, args, sizes)


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
    model: TransformerLM,
    trace: list[TraceEntry],
    config: EngineConfig,
    cluster: ClusterConfig,
) -> dict:
    """Replay ``trace`` through a fresh executor, wall-timing each step."""
    entries = sorted(
        (clone_entry(e) for e in trace), key=lambda e: e.arrival_step
    )
    submitted = 0
    step_wall: list[float] = []
    step_loads: list[list[int]] = []
    submit_wall: dict[int, float] = {}
    first_token_wall: dict[int, float] = {}
    with make_executor(model, config, cluster) as executor:
        while submitted < len(entries) or executor.has_unfinished:
            while (
                submitted < len(entries)
                and entries[submitted].arrival_step <= executor.clock
            ):
                request_id = executor.add_request(entries[submitted].request)
                submit_wall[request_id] = time.perf_counter()
                submitted += 1
            if not executor.has_unfinished:
                executor.advance_clock_to(entries[submitted].arrival_step)
                continue
            step_loads.append([
                s.reserved_tokens + s.n_waiting
                for s in executor.snapshots().values()
            ])
            start = time.perf_counter()
            executor.step()
            end = time.perf_counter()
            step_wall.append(end - start)
            for event in executor.pop_stream_events():
                first_token_wall.setdefault(event.request_id, end)
        snapshots = executor.snapshots()
        meter = executor.stats()
    ttft_wall_s = {
        rid: first_token_wall[rid] - submit_wall[rid] for rid in first_token_wall
    }
    return {
        "executor": executor,
        "snapshots": snapshots,
        "meter": meter,
        "step_wall": step_wall,
        "step_loads": step_loads,
        "ttft_wall_s": ttft_wall_s,
    }


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def router_metrics(run: dict) -> dict:
    """Aggregate one replay into the reported per-router entry."""
    executor = run["executor"]
    meter = run["meter"]
    routing = executor.routing
    wall = np.array(run["step_wall"])
    ttfts_ms = [1e3 * t for t in run["ttft_wall_s"].values()]
    outputs = executor.outputs
    loads = np.array(run["step_loads"], dtype=float)
    # Mean per-step population variance of the replica loads (admission
    # charge + queue depth): 0 when perfectly balanced every step.
    load_variance = float(np.mean(np.var(loads, axis=1))) if loads.size else 0.0
    return {
        "router": executor.placement.router.name,
        "n_replicas": executor.n_workers,
        "steps": len(wall),
        "wall_s": float(wall.sum()),
        "generated_tokens": sum(len(o.token_ids) for o in outputs),
        "prefix_reused_tokens": sum(
            o.stats.prefix_reused_tokens for o in outputs
        ),
        "affinity_hit_rate": routing.hit_rate,
        "per_replica": {
            "routed": list(routing.routed),
            "affinity_hits": list(routing.affinity_hits),
            "affinity_misses": list(routing.affinity_misses),
            "cold": list(routing.cold),
            "prefix_blocks_reused": [
                s.pool.prefix_blocks_reused
                for s in run["snapshots"].values()
            ],
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
        "tokens_per_step": meter.tokens_per_second,
        "busy_tokens_per_step": meter.busy_tokens_per_second,
        "preemptions": len(executor.preemption_log),
        "load_variance": load_variance,
        "migrations": len(executor.migrations),
        "token_streams": [o.token_ids for o in outputs],
    }


def ratio(num: float, den: float) -> float:
    # A zero baseline with a non-zero numerator is an unbounded win
    # (e.g. round_robin scattered every group member, reusing nothing)
    # and must pass the gate, not report the worst possible 0.0x;
    # 0/0 means "no difference to measure" and gates as 1.0.
    if den > 0:
        return num / den
    return float("inf") if num > 0 else 1.0


def run_best_of(model, trace, config, cluster, repeats: int) -> dict:
    best = None
    for _ in range(repeats):
        run = router_metrics(replay_timed(model, trace, config, cluster))
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    return best


def bench_cluster(model, tokenizer, args) -> dict:
    trace = build_shared_prefix_workload(tokenizer, args)
    config = EngineConfig(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        max_concurrency=args.concurrency,
        seed=args.seed,
        block_size=args.block_size,
    )
    routers = {}
    for router in ROUTERS:
        cluster = ClusterConfig(
            n_replicas=args.replicas,
            router=router,
            stickiness_tokens=args.stickiness_tokens,
        )
        routers[router] = run_best_of(
            model, trace, config, cluster, args.repeats
        )
    streams = {name: r.pop("token_streams") for name, r in routers.items()}
    reference = streams["round_robin"]
    streams_identical = all(s == reference for s in streams.values())

    affinity = routers["prefix_affinity"]
    baseline = routers["round_robin"]
    return {
        "routers": routers,
        "affinity_gain_prefix_tokens": ratio(
            affinity["prefix_reused_tokens"], baseline["prefix_reused_tokens"]
        ),
        "ttft_p95_gain": ratio(
            baseline["ttft_ms"]["p95"], affinity["ttft_ms"]["p95"]
        ),
        "streams_identical": streams_identical,
    }


def bench_migration(model, tokenizer, args) -> dict:
    """Live-migration sub-benchmark: rebalance on vs off, same skewed trace.

    Both runs route with ``prefix_affinity`` over the hot-group trace;
    the contender adds a periodic :meth:`~repro.serving.engine.executor
    .ExecutorBase.rebalance` pass that drains whole sessions from the
    overloaded replica via live KV migration. Reported gains: per-step
    load variance (balance) and wall-clock tail TTFT. The two runs'
    token streams must be identical — migration moves sessions
    wholesale, so placement history never shows up in the tokens.
    """
    # The skewed trace needs genuine queueing pressure on the hot
    # replica (tight concurrency, dense arrivals) or rebalancing has no
    # tail latency to win back — hence its own pressure knobs.
    args = copy.copy(args)
    args.concurrency = args.migration_concurrency
    args.mean_interarrival = args.migration_interarrival
    trace = build_skewed_workload(tokenizer, args)
    config = EngineConfig(
        budget=args.budget,
        bos_id=tokenizer.bos_id,
        max_concurrency=args.concurrency,
        seed=args.seed,
        block_size=args.block_size,
    )
    runs = {}
    for name, rebalance_every in (
        ("prefix_affinity", 0),
        ("rebalance", args.rebalance_every),
    ):
        cluster = ClusterConfig(
            n_replicas=args.replicas,
            router="prefix_affinity",
            stickiness_tokens=args.stickiness_tokens,
            rebalance_every=rebalance_every,
            rebalance_ratio=args.rebalance_ratio,
            max_migrations_per_pass=args.max_migrations_per_pass,
        )
        runs[name] = run_best_of(model, trace, config, cluster, args.repeats)
    streams = {name: r.pop("token_streams") for name, r in runs.items()}
    baseline = runs["prefix_affinity"]
    rebalanced = runs["rebalance"]
    return {
        "runs": runs,
        "balance_gain": ratio(
            baseline["load_variance"], rebalanced["load_variance"]
        ),
        "ttft_p95_gain": ratio(
            baseline["ttft_ms"]["p95"], rebalanced["ttft_ms"]["p95"]
        ),
        "ttft_p95_steps_gain": ratio(
            baseline["ttft_steps"]["p95"], rebalanced["ttft_steps"]["p95"]
        ),
        "migrations": rebalanced["migrations"],
        "streams_identical": streams["rebalance"]
        == streams["prefix_affinity"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_cluster",
        description="Multi-replica cluster serving benchmark: "
        "prefix-affinity routing vs round-robin and least-loaded.",
    )
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--groups", type=int, default=5,
                        help="shared-system-prompt groups in the trace")
    parser.add_argument("--group-size", type=int, default=6,
                        help="requests per group (sharing that system prompt)")
    parser.add_argument("--system-len", type=int, default=96,
                        help="shared system-prompt length in tokens")
    parser.add_argument("--suffix-len", type=int, default=16,
                        help="unique user-suffix length in tokens")
    parser.add_argument("--max-new-tokens", type=int, default=6)
    parser.add_argument("--policy", default="streaming")
    parser.add_argument("--budget", type=int, default=64)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--stickiness-tokens", type=int, default=16)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--vocab", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mean-interarrival", type=float, default=2.0,
                        help="Poisson mean inter-arrival in cluster steps")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed replays per router; best run is reported")
    parser.add_argument("--hot-group-size", type=int, default=18,
                        help="members in the skewed trace's hot group "
                        "(migration sub-benchmark)")
    parser.add_argument("--migration-concurrency", type=int, default=4,
                        help="per-replica max concurrency in the migration "
                        "sub-benchmark (tight, to build hot-replica queues)")
    parser.add_argument("--migration-interarrival", type=float, default=1.0,
                        help="Poisson mean inter-arrival for the skewed "
                        "trace")
    parser.add_argument("--rebalance-every", type=int, default=2,
                        help="rebalance cadence in the migration "
                        "sub-benchmark's contender run")
    parser.add_argument("--rebalance-ratio", type=float, default=1.2,
                        help="imbalance ratio triggering a migration")
    parser.add_argument("--max-migrations-per-pass", type=int, default=4)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    parser.add_argument("--min-affinity-gain", type=float, default=None,
                        help="exit non-zero if prefix_affinity's cluster-wide "
                        "prefix-reused tokens fall below this multiple of "
                        "round_robin's")
    parser.add_argument("--min-balance-gain", type=float, default=None,
                        help="exit non-zero if the rebalance run's load "
                        "variance fails to beat plain prefix_affinity by "
                        "this multiple on the skewed trace")
    parser.add_argument("--out", default="BENCH_cluster.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.replicas = min(args.replicas, 3)
        args.groups = min(args.groups, 4)
        args.group_size = min(args.group_size, 4)
        args.system_len = min(args.system_len, 64)
        args.layers = min(args.layers, 2)
        args.repeats = min(args.repeats, 2)
        args.hot_group_size = min(args.hot_group_size, 12)

    model, tokenizer = build_model(args)
    report = {
        "benchmark": "cluster_serving",
        "smoke": args.smoke,
        "workload": {
            "replicas": args.replicas,
            "groups": args.groups,
            "group_size": args.group_size,
            "system_len": args.system_len,
            "suffix_len": args.suffix_len,
            "max_new_tokens": args.max_new_tokens,
            "policy": args.policy,
            "budget": args.budget,
            "concurrency": args.concurrency,
            "block_size": args.block_size,
            "stickiness_tokens": args.stickiness_tokens,
            "layers": args.layers,
            "vocab": args.vocab,
            "seed": args.seed,
            "mean_interarrival": args.mean_interarrival,
            "repeats": args.repeats,
            "hot_group_size": args.hot_group_size,
            "migration_concurrency": args.migration_concurrency,
            "migration_interarrival": args.migration_interarrival,
            "rebalance_every": args.rebalance_every,
            "rebalance_ratio": args.rebalance_ratio,
            "max_migrations_per_pass": args.max_migrations_per_pass,
        },
        **bench_cluster(model, tokenizer, args),
        "migration": bench_migration(model, tokenizer, args),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for name in ROUTERS:
        r = report["routers"][name]
        print(
            f"{name:>15}: {r['prefix_reused_tokens']:6d} prefix tokens reused "
            f"| hit rate {r['affinity_hit_rate']:4.0%} | "
            f"ttft p95 {r['ttft_ms']['p95']:7.2f} ms | "
            f"{r['tokens_per_step']:.2f} tok/step"
        )
    print(
        f"prefix_affinity vs round_robin: "
        f"{report['affinity_gain_prefix_tokens']:.2f}x prefix-reused tokens, "
        f"{report['ttft_p95_gain']:.2f}x ttft p95  |  "
        f"streams identical: {report['streams_identical']}"
    )
    migration = report["migration"]
    for name in ("prefix_affinity", "rebalance"):
        r = migration["runs"][name]
        print(
            f"{name:>15}: load variance {r['load_variance']:10.1f} | "
            f"ttft p95 {r['ttft_steps']['p95']:5.1f} steps "
            f"/ {r['ttft_ms']['p95']:7.2f} ms | "
            f"{r['migrations']:2d} migrations | "
            f"{r['tokens_per_step']:.2f} tok/step"
        )
    print(
        f"rebalance vs prefix_affinity (skewed trace): "
        f"{migration['balance_gain']:.2f}x load-variance reduction, "
        f"{migration['ttft_p95_steps_gain']:.2f}x ttft p95 steps, "
        f"{migration['migrations']} live migrations  |  "
        f"streams identical: {migration['streams_identical']}"
    )
    print(f"wrote {args.out}")

    if not report["streams_identical"]:
        print(
            "FAIL: token streams differ across routers", file=sys.stderr
        )
        return 1
    if not migration["streams_identical"]:
        print(
            "FAIL: token streams differ under live migration",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_affinity_gain is not None
        and report["affinity_gain_prefix_tokens"] < args.min_affinity_gain
    ):
        print(
            f"FAIL: affinity gain "
            f"{report['affinity_gain_prefix_tokens']:.2f}x below required "
            f"{args.min_affinity_gain:.2f}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_balance_gain is not None
        and migration["balance_gain"] < args.min_balance_gain
    ):
        print(
            f"FAIL: balance gain {migration['balance_gain']:.2f}x below "
            f"required {args.min_balance_gain:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
