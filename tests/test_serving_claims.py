"""Exact pins of three serving claims that need no clock.

Each is a count on the step clock of one seeded trace, so it is pinned to
its value rather than gated as a ratio: goodput under bursty overload per
admission policy, prefix tokens reused per router, and the per-step
variance of replica loads with and without live-migration rebalancing.
Every compared run streams the same tokens: admission, placement and
migration decide which requests run and where, never what they generate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.models.builder import build_recall_model
from repro.models.config import tiny_test_config
from repro.models.llm import TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.serving.chaos import Fault, FaultPlan, run_chaos
from repro.serving.engine import make_executor
from repro.serving.server import SpeContextServer
from repro.serving.trace import bursty_trace, poisson_trace, replay_trace

ADMISSION_OPTS = {
    "accept_all": {},
    "queue_depth": {"max_waiting": 4},
    "deadline_feasible": {"queue_delay_per_waiting": 2.0},
}


@pytest.fixture(scope="module")
def tokenizer() -> SyntheticTokenizer:
    return SyntheticTokenizer(512)


@pytest.fixture(scope="module")
def model(tokenizer) -> TransformerLM:
    config = tiny_test_config(n_layers=2, vocab_size=512)
    rng = np.random.default_rng(0)
    return TransformerLM(build_recall_model(config, tokenizer, rng))


def filler(tokenizer, seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(t) for t in tokenizer.random_filler_ids(rng, n)]


def engine_config(tokenizer, max_concurrency=4, **overrides) -> EngineConfig:
    return EngineConfig(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=max_concurrency,
        seed=0,
        **overrides,
    )


# ---- goodput under overload --------------------------------------------------


def build_overload_trace(
    tokenizer, n_requests=24, prompt_seed=30_000, deadline=16.0
):
    """Bursts of 8 twelve-token prompts 0.2 steps apart, far more than 4
    batch slots can start, then an 8-step gap. Each request must finish
    within ``deadline`` steps: early burst members can, late ones cannot."""
    requests = [
        GenerationRequest(
            np.array([tokenizer.bos_id] + filler(tokenizer, prompt_seed + i, 12)),
            sampling=SamplingParams(max_new_tokens=8, total_deadline_s=deadline),
        )
        for i in range(n_requests)
    ]
    return bursty_trace(np.random.default_rng(0), requests, 8, 0.2, 8.0)


def replay_admission(model, tokenizer, admission: str) -> dict:
    """One replay under ``admission``. Streams are keyed by trace index,
    because a shed request takes no request id."""
    trace = build_overload_trace(tokenizer)
    server = SpeContextServer(model, engine_config(
        tokenizer, admission=admission, admission_opts=ADMISSION_OPTS[admission]
    ))
    shed, events = [], []
    outputs = replay_trace(
        server,
        trace,
        observer=lambda stepped: events.append(stepped.pop_stream_events()),
        on_reject=lambda request, err: shed.append(request),
    )
    expired = {f.request_id for f in server.pop_failures()}
    index_of = {e.request.request_id: i for i, e in enumerate(trace)}
    return {
        "finished": len(outputs),
        "shed": len(shed),
        "expired": len(expired),
        "tokens": sum(len(o.token_ids) for o in outputs),
        "steps": len(events),
        # Tokens streamed to requests that later expired: thrown-away work.
        "wasted": sum(
            e.request_id in expired and e.error is None
            for step in events
            for e in step
        ),
        "streams": {index_of[o.request_id]: o.token_ids for o in outputs},
    }


@pytest.fixture(scope="module")
def admission_runs(model, tokenizer) -> dict[str, dict]:
    return {
        name: replay_admission(model, tokenizer, name) for name in ADMISSION_OPTS
    }


GOODPUT_PINS = {
    "accept_all": dict(
        finished=16, shed=0, expired=8, tokens=128, steps=40, wasted=23
    ),
    "queue_depth": dict(
        finished=12, shed=12, expired=0, tokens=96, steps=26, wasted=0
    ),
    "deadline_feasible": dict(
        finished=12, shed=12, expired=0, tokens=96, steps=26, wasted=0
    ),
}


class TestGoodputUnderOverload:
    @pytest.mark.parametrize("admission", GOODPUT_PINS)
    def test_counts(self, admission_runs, admission):
        pins = GOODPUT_PINS[admission]
        assert {key: admission_runs[admission][key] for key in pins} == pins

    def test_admitted_streams_equal_accept_all(self, admission_runs):
        reference = admission_runs["accept_all"]["streams"]
        for name, run in admission_runs.items():
            for index, tokens in run["streams"].items():
                assert tokens == reference[index], (name, index)

    def test_worker_kill_failover(self, model, tokenizer):
        """Two in-process workers, worker 0 killed at step 2: its 4
        requests are resubmitted and every stream equals the clean run's,
        at the cost of 8 more steps."""
        reports = []
        for plan in (
            FaultPlan("clean"),
            FaultPlan("kill", (Fault(step=2, kind="kill", worker=0),)),
        ):
            trace = build_overload_trace(
                tokenizer, n_requests=12, prompt_seed=40_000, deadline=None
            )
            with make_executor(
                model,
                engine_config(tokenizer),
                ClusterConfig(n_replicas=2, executor="inproc"),
            ) as executor:
                reports.append(run_chaos(executor, trace, plan))
        clean, kill = reports
        assert (clean.steps, kill.steps) == (18, 26)
        assert len(kill.resubmissions) == 4
        assert kill.foreground_streams == clean.foreground_streams


# ---- cluster routing and live migration ----------------------------------------


def _grouped_trace(tokenizer, group_sizes, mean_interarrival):
    """Each group shares a 64-token system prompt and each member adds a
    unique 16-token suffix; a seeded shuffle interleaves the groups."""
    prompts = []
    for group, size in enumerate(group_sizes):
        system = filler(tokenizer, 10_000 + group, 64)
        for _ in range(size):
            suffix = filler(tokenizer, 20_000 + len(prompts), 16)
            prompts.append(np.array([tokenizer.bos_id] + system + suffix))
    rng = np.random.default_rng(0)
    requests = [
        GenerationRequest(
            prompts[i],
            sampling=SamplingParams(max_new_tokens=6),
            policy="streaming",
            budget=64,
        )
        for i in rng.permutation(len(prompts))
    ]
    return poisson_trace(rng, requests, mean_interarrival)


def replay_cluster(model, trace, config, cluster) -> dict:
    """Replay through a fresh executor, sampling each replica's load
    (reserved tokens plus queue depth) before every step."""
    entries = sorted(trace, key=lambda e: e.arrival_step)
    loads = []
    with make_executor(model, config, cluster) as executor:
        while entries or executor.has_unfinished:
            while entries and entries[0].arrival_step <= executor.clock:
                executor.add_request(entries.pop(0).request)
            if not executor.has_unfinished:
                executor.advance_clock_to(entries[0].arrival_step)
                continue
            loads.append([
                s.reserved_tokens + s.n_waiting
                for s in executor.snapshots().values()
            ])
            executor.step()
        outputs = executor.outputs
        return {
            "steps": len(loads),
            "load_variance": float(np.mean(np.var(loads, axis=1))),
            "prefix_reused_tokens": sum(o.stats.prefix_reused_tokens for o in outputs),
            "hit_rate": executor.routing.hit_rate,
            "migrations": len(executor.migrations),
            "streams": [o.token_ids for o in outputs],
        }


@pytest.fixture(scope="module", params=("inproc", "multiproc"))
def executor_kind(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def router_runs(model, tokenizer, executor_kind) -> dict[str, dict]:
    """4 groups of 4 members on 3 replicas, one run per router."""
    return {
        router: replay_cluster(
            model,
            _grouped_trace(tokenizer, [4] * 4, mean_interarrival=2.0),
            engine_config(tokenizer, max_concurrency=8),
            ClusterConfig(n_replicas=3, router=router, executor=executor_kind),
        )
        for router in ("round_robin", "least_loaded", "prefix_affinity")
    }


@pytest.fixture(scope="module")
def migration_runs(model, tokenizer, executor_kind) -> dict[int, dict]:
    """A hot group of 12 beside three groups of 4, dense arrivals and 4
    slots per replica under ``prefix_affinity``, which piles the hot
    group onto one replica. Keyed by ``rebalance_every``."""
    return {
        every: replay_cluster(
            model,
            _grouped_trace(tokenizer, [12, 4, 4, 4], mean_interarrival=1.0),
            engine_config(tokenizer),
            ClusterConfig(
                n_replicas=3,
                executor=executor_kind,
                rebalance_every=every,
                rebalance_ratio=1.2,
            ),
        )
        for every in (0, 2)
    }


class TestPrefixAffinityRouting:
    def test_prefix_reused_tokens_and_hit_rate(self, router_runs):
        assert {
            router: (run["prefix_reused_tokens"], run["hit_rate"])
            for router, run in router_runs.items()
        } == {
            "round_robin": (320, 5 / 11),
            "least_loaded": (320, 5 / 11),
            "prefix_affinity": (704, 1.0),
        }

    def test_steps_and_streams(self, router_runs):
        reference = router_runs["round_robin"]["streams"]
        for run in router_runs.values():
            assert run["steps"] == 32
            assert run["streams"] == reference


class TestLiveMigrationBalance:
    def test_load_variance(self, migration_runs):
        # np.var of integer loads: exact up to float summation order.
        assert migration_runs[0]["load_variance"] == pytest.approx(
            11823.238095238094, rel=1e-12
        )
        assert migration_runs[2]["load_variance"] == pytest.approx(
            1996.3333333333333, rel=1e-12
        )

    def test_migrations_steps_and_streams(self, migration_runs):
        off, on = migration_runs[0], migration_runs[2]
        assert (off["migrations"], on["migrations"]) == (0, 8)
        assert off["steps"] == on["steps"] == 28
        assert on["streams"] == off["streams"]
