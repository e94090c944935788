"""Replica-set (executor) tests: one contract, asserted once per executor.

Every multi-replica frontend is an executor, so the whole cluster
contract runs over ``EXECUTORS = (InProcessExecutor, MultiprocExecutor)``:

- placement never changes tokens: every request's stream is bit-identical
  to a solo run of the same request on a fresh replica
  (``solo_token_streams`` — the one permanent oracle), across routers,
  replica counts and forced preemption (exact streams; no cross-replica
  array-equality is asserted — the [[bit-identity-semantics]] contract);
- the in-process and multiprocess executors agree on streams, finish
  reasons and placements for the same submission sequence — any
  difference is a pipe/pickle bug by construction;
- routers are deterministic total orders over the replica views
  (stickiness-threshold fallback, least-loaded tie-breaking by index);
- merged stream/preemption/meter views agree with the per-worker
  snapshots, and merged percentiles equal a single meter fed the union of
  records (not any average of per-replica aggregates);
- killing a worker mid-trace resubmits its in-flight requests to
  survivors and the merged client streams stay bit-identical to a run
  that never saw the death (exactly-once delivery via replayed-prefix
  suppression);
- typed validation errors raised worker-side ship back across the pipe
  and leave the executor retryable (request, ids, routing stats and
  router cursor restored);
- requests are plain data (names and seeds, never policy or generator
  objects): the single server and both executors refuse the same
  requests with the same typed error.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    EngineConfig,
    GenerationRequest,
    SamplingParams,
)
from repro.api.errors import (
    EngineUnavailableError,
    RequestValidationError,
    UnknownPolicyError,
)
from repro.serving import (
    RequestRecord,
    ThroughputMeter,
    poisson_trace,
    registry,
    replay_trace,
)
from repro.serving.engine import (
    InProcessExecutor,
    MultiprocExecutor,
    StepResult,
    WorkerCore,
    WorkerSnapshot,
    make_executor,
    serve_connection,
)
from repro.serving.server import SpeContextServer
from repro.serving.trace import solo_token_streams

ALL_NAMES = (
    "specontext", "quest", "h2o", "shadowkv", "clusterkv",
    "streaming", "sliding", "full",
)

EXECUTORS = (InProcessExecutor, MultiprocExecutor)

# (n_replicas, router) grid for the bit-identity sweep: all three routers,
# replica counts 1, 2 and 4.
CLUSTER_GRID = (
    (1, "round_robin"),
    (2, "round_robin"),
    (2, "prefix_affinity"),
    (4, "least_loaded"),
    (4, "prefix_affinity"),
)


def engine_config(tokenizer, **overrides) -> EngineConfig:
    defaults = dict(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=8,
        seed=0,
        block_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def cluster_config(n_workers: int, **overrides) -> ClusterConfig:
    defaults = dict(n_replicas=n_workers, router="round_robin")
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def mixed_policy_requests(
    tokenizer, n: int = 8, max_new: int = 4
) -> list[GenerationRequest]:
    """One request per KV policy, filler prompts with a shared prefix."""
    prefix_rng = np.random.default_rng(11)
    prefix = [int(t) for t in tokenizer.random_filler_ids(prefix_rng, 16)]
    requests = []
    for i in range(n):
        rng = np.random.default_rng(500 + i)
        suffix = [int(t) for t in tokenizer.random_filler_ids(rng, 10 + i)]
        requests.append(GenerationRequest(
            np.array([tokenizer.bos_id] + prefix + suffix),
            sampling=SamplingParams(max_new_tokens=max_new),
            policy=ALL_NAMES[i % len(ALL_NAMES)],
            budget=48,
        ))
    return requests


def shared_prefix_requests(
    tokenizer, policy: str, n: int = 5, prefix_len: int = 24, max_new: int = 5
) -> list[GenerationRequest]:
    """n requests sharing a system prefix ahead of unique suffixes."""
    prefix_rng = np.random.default_rng(7)
    prefix = [int(t) for t in tokenizer.random_filler_ids(prefix_rng, prefix_len)]
    requests = []
    for i in range(n):
        rng = np.random.default_rng(300 + i)
        suffix = [int(t) for t in tokenizer.random_filler_ids(rng, 8 + i)]
        requests.append(GenerationRequest(
            np.array([tokenizer.bos_id] + prefix + suffix),
            sampling=SamplingParams(max_new_tokens=max_new),
            policy=policy,
            budget=48,
        ))
    return requests


def clone(request: GenerationRequest) -> GenerationRequest:
    return GenerationRequest(
        request.prompt_ids.copy(),
        sampling=request.sampling,
        policy=request.policy,
        budget=request.budget,
        priority=request.priority,
    )


def run_trace(executor, requests, kill=None):
    """Submit everything, step to empty; optionally kill a worker.

    ``kill`` is ``(after_step, worker_index)``. Returns per-request
    ``(streams, finish_reasons, placements)`` keyed by global id, where
    streams carry the session-relative ``(step, token_id)`` pairs the
    client observed.
    """
    placements = {}
    for request in requests:
        gid = executor.add_request(clone(request))
        placements[gid] = executor.worker_of(gid)
    streams: dict[int, list] = {gid: [] for gid in placements}
    reasons: dict[int, str] = {}
    steps = 0
    while executor.has_unfinished:
        if kill is not None and steps == kill[0]:
            executor.kill_worker(kill[1])
        finished = executor.step()
        steps += 1
        for event in executor.pop_stream_events():
            streams[event.request_id].append((event.step, event.token_id))
        for output in finished:
            reasons[output.request_id] = output.finish_reason
    return streams, reasons, placements


# ---- router units (no model needed) -----------------------------------------


class StubReplica:
    """Minimal ReplicaView: fixed load and a canned prefix-match answer."""

    def __init__(self, index, reserved_tokens=0, queue_depth=0, match=0):
        self.index = index
        self.reserved_tokens = reserved_tokens
        self.queue_depth = queue_depth
        self._match = match

    def prefix_match_tokens(self, prompt_ids) -> int:
        return self._match


def stub_request(n_tokens: int = 16) -> GenerationRequest:
    return GenerationRequest(np.arange(1, n_tokens + 1))


class TestRouterRegistry:
    def test_available_and_aliases(self):
        assert registry.available("router") == (
            "least_loaded", "prefix_affinity", "round_robin"
        )
        assert registry.resolve("router", "RR") == "round_robin"
        assert registry.resolve("router", "prefix-affinity") == "prefix_affinity"
        assert registry.resolve("router", "LeastLoaded") == "least_loaded"

    def test_unknown_router_raises(self):
        with pytest.raises(KeyError, match="available"):
            registry.resolve("router", "rendezvous")

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            registry.make("router", "round_robin", stickiness_tokens=4)

    def test_bad_stickiness_rejected(self):
        with pytest.raises(ValueError, match="stickiness_tokens"):
            registry.make("router", "prefix_affinity", stickiness_tokens=0)


class TestRoundRobinRouter:
    def test_cycles_deterministically(self):
        router = registry.make("router", "round_robin")
        replicas = [StubReplica(i) for i in range(3)]
        chosen = [router.route(stub_request(), replicas) for _ in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]


class TestLeastLoadedRouter:
    def test_picks_smallest_reserved_plus_queue(self):
        router = registry.make("router", "least_loaded")
        replicas = [
            StubReplica(0, reserved_tokens=100, queue_depth=0),
            StubReplica(1, reserved_tokens=40, queue_depth=2),
            StubReplica(2, reserved_tokens=60, queue_depth=0),
        ]
        assert router.route(stub_request(), replicas) == 1

    def test_queue_depth_counts_toward_load(self):
        router = registry.make("router", "least_loaded")
        replicas = [
            StubReplica(0, reserved_tokens=50, queue_depth=10),
            StubReplica(1, reserved_tokens=55, queue_depth=0),
        ]
        assert router.route(stub_request(), replicas) == 1

    def test_tie_breaks_to_lowest_index(self):
        router = registry.make("router", "least_loaded")
        replicas = [StubReplica(i, reserved_tokens=64) for i in range(4)]
        assert router.route(stub_request(), replicas) == 0
        replicas[0].reserved_tokens = 65
        assert router.route(stub_request(), replicas) == 1


class TestPrefixAffinityRouter:
    def test_sticks_to_longest_match(self):
        router = registry.make("router", "prefix_affinity", stickiness_tokens=8)
        replicas = [
            StubReplica(0, reserved_tokens=0, match=8),
            StubReplica(1, reserved_tokens=500, match=24),
            StubReplica(2, reserved_tokens=0, match=0),
        ]
        # Replica 1 is the most loaded but holds the longest match.
        assert router.route(stub_request(), replicas) == 1

    def test_below_stickiness_falls_back_to_least_loaded(self):
        router = registry.make("router", "prefix_affinity", stickiness_tokens=32)
        replicas = [
            StubReplica(0, reserved_tokens=90, match=24),
            StubReplica(1, reserved_tokens=10, match=0),
        ]
        # 24 < 32: the match is ignored; load decides.
        assert router.route(stub_request(), replicas) == 1
        sticky = registry.make("router", "prefix_affinity", stickiness_tokens=24)
        assert sticky.route(stub_request(), replicas) == 0

    def test_match_ties_break_by_load_then_index(self):
        router = registry.make("router", "prefix_affinity", stickiness_tokens=8)
        replicas = [
            StubReplica(0, reserved_tokens=64, match=16),
            StubReplica(1, reserved_tokens=32, match=16),
            StubReplica(2, reserved_tokens=32, match=16),
        ]
        assert router.route(stub_request(), replicas) == 1


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_replicas"):
            ClusterConfig(n_replicas=0)
        with pytest.raises(ValueError, match="stickiness_tokens"):
            ClusterConfig(stickiness_tokens=0)

    def test_unknown_router_raises_at_executor_build(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        with pytest.raises(KeyError, match="available"):
            InProcessExecutor(
                tiny_gqa_model,
                engine_config(tiny_tokenizer),
                ClusterConfig(router="not-a-router"),
            )

    def test_stickiness_reaches_the_router(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = InProcessExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            ClusterConfig(router="prefix_affinity", stickiness_tokens=40),
        )
        assert executor.placement.router.stickiness_tokens == 40


# ---- pool probe --------------------------------------------------------------


class TestLongestPrefixMatch:
    def run_one(self, model, tokenizer, request):
        server = SpeContextServer(
            model, engine_config(tokenizer)
        )
        server.add_request(clone(request))
        server.run()
        return server

    def test_probe_counts_cached_prefix_without_mutating(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        request = shared_prefix_requests(tiny_tokenizer, "streaming", n=1)[0]
        server = self.run_one(tiny_gqa_model, tiny_tokenizer, request)
        pool = server.pool
        before = (pool.stats.prefix_queries, pool.stats.prefix_hits)
        lru_before = list(pool._prefix_index)
        matched = pool.longest_prefix_match(request.prompt_ids)
        prefill_len = request.prompt_len - 1  # sparse-first prefill
        assert matched == (prefill_len // pool.block_size) * pool.block_size
        assert matched > 0
        # Read-only: no query/hit counted, no LRU refresh.
        assert (pool.stats.prefix_queries, pool.stats.prefix_hits) == before
        assert list(pool._prefix_index) == lru_before

    def test_probe_respects_max_tokens_and_misses(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        request = shared_prefix_requests(tiny_tokenizer, "streaming", n=1)[0]
        server = self.run_one(tiny_gqa_model, tiny_tokenizer, request)
        pool = server.pool
        assert pool.longest_prefix_match(
            request.prompt_ids, pool.block_size
        ) == pool.block_size
        other = np.array([tiny_tokenizer.bos_id] + [3, 1, 4, 1, 5, 9, 2, 6])
        assert pool.longest_prefix_match(other) == 0


# ---- worker core (no pipes) --------------------------------------------------


class TestWorkerCore:
    def make_core(self, tiny_gqa_model, tiny_tokenizer) -> WorkerCore:
        return WorkerCore(
            SpeContextServer(tiny_gqa_model, engine_config(tiny_tokenizer))
        )

    def test_ops_roundtrip(self, tiny_gqa_model, tiny_tokenizer):
        core = self.make_core(tiny_gqa_model, tiny_tokenizer)
        request = mixed_policy_requests(tiny_tokenizer, n=1)[0]
        lid = core.handle("submit", (request,))
        assert lid == 0
        reserved, depth, match = core.handle("probe", (request.prompt_ids,))
        assert reserved == request.prompt_len + 4
        assert depth == 1
        assert match == 0
        assert core.handle("ping", ()) == "pong"
        result = core.handle("step", ())
        assert isinstance(result, StepResult)
        assert result.step_tokens > 0  # prefill + first decode charged
        tokens = [e.token_id for e in result.stream_events]
        while result.has_unfinished:
            result = core.handle("step", ())
            tokens.extend(e.token_id for e in result.stream_events)
        assert len(tokens) == 4
        snapshot = core.handle("stats", ())
        assert isinstance(snapshot, WorkerSnapshot)
        assert snapshot.n_active == 0 and snapshot.reserved_tokens == 0
        assert len(snapshot.meter.finished) == 1

    def test_unknown_op_and_abort(self, tiny_gqa_model, tiny_tokenizer):
        core = self.make_core(tiny_gqa_model, tiny_tokenizer)
        with pytest.raises(ValueError, match="unknown worker op"):
            core.handle("frobnicate", ())
        assert core.handle("abort", (99,)) is False
        lid = core.handle(
            "submit", (mixed_policy_requests(tiny_tokenizer, n=1)[0],)
        )
        assert core.handle("abort", (lid,)) is True
        assert core.handle("step", ()).has_unfinished is False


# ---- pipe protocol (serve_connection in a thread) ----------------------------


class TestServeConnection:
    @pytest.fixture()
    def pipe_worker(self, tiny_gqa_model, tiny_tokenizer):
        core = WorkerCore(
            SpeContextServer(tiny_gqa_model, engine_config(tiny_tokenizer))
        )
        parent, child = mp.Pipe()
        thread = threading.Thread(
            target=serve_connection, args=(core, child), daemon=True
        )
        thread.start()
        yield parent
        if not parent.closed:
            try:
                parent.send(("shutdown", ()))
                parent.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            parent.close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def call(self, conn, op, *args):
        conn.send((op, args))
        status, payload = conn.recv()
        if status == "err":
            raise payload
        return payload

    def test_full_request_lifecycle(self, pipe_worker, tiny_tokenizer):
        request = mixed_policy_requests(tiny_tokenizer, n=1)[0]
        lid = self.call(pipe_worker, "submit", request)
        assert lid == 0
        reserved, depth, match = self.call(
            pipe_worker, "probe", request.prompt_ids
        )
        assert (reserved, depth, match) == (request.prompt_len + 4, 1, 0)
        tokens = []
        while True:
            result = self.call(pipe_worker, "step")
            tokens.extend(e.token_id for e in result.stream_events)
            if not result.has_unfinished:
                break
        assert len(tokens) == 4
        snapshot = self.call(pipe_worker, "stats")
        assert len(snapshot.meter.finished) == 1

    def test_errors_ship_back_and_worker_survives(
        self, pipe_worker, tiny_tokenizer
    ):
        request = clone(mixed_policy_requests(tiny_tokenizer, n=1)[0])
        request.policy = "not-a-policy"
        with pytest.raises(UnknownPolicyError, match="unknown policy"):
            self.call(pipe_worker, "submit", request)
        with pytest.raises(ValueError, match="unknown worker op"):
            self.call(pipe_worker, "no_such_op")
        # The loop survived both errors and still answers.
        assert self.call(pipe_worker, "ping") == "pong"
        assert self.call(pipe_worker, "abort", 123) is False

    def test_shutdown_acknowledges(self, pipe_worker):
        pipe_worker.send(("shutdown", ()))
        assert pipe_worker.recv() == ("ok", None)
        pipe_worker.close()


# ---- bit-identity -------------------------------------------------------------


class TestExecutorBitIdentity:
    """Streams identical to solo runs across executors, routers and widths."""

    @pytest.mark.parametrize("policy", ALL_NAMES)
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_streams_identical_across_grid(
        self, tiny_gqa_model, tiny_tokenizer, kind, policy
    ):
        config = engine_config(tiny_tokenizer)
        requests = shared_prefix_requests(tiny_tokenizer, policy)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        trace = poisson_trace(
            np.random.default_rng(11), [clone(r) for r in requests], 2.0
        )
        for n_replicas, router in CLUSTER_GRID:
            cluster = cluster_config(
                n_replicas, router=router, stickiness_tokens=8
            )
            with kind(tiny_gqa_model, config, cluster) as executor:
                outputs = replay_trace(executor, trace)
            assert [o.token_ids for o in outputs] == solo, (
                f"{policy} stream diverged on {n_replicas} replicas "
                f"under {router}"
            )

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_all_policies_identical_under_forced_preemption(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        """A pool too small for a replica's share forces preemption on at
        least one replica; every stream still matches its solo run."""
        requests = []
        for name in ALL_NAMES:
            requests.extend(
                shared_prefix_requests(
                    tiny_tokenizer, name, n=1, max_new=40
                )
            )
        config = engine_config(tiny_tokenizer)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        # Per-replica pool holds two prompts plus one spare block. The
        # prompts share three full prefix blocks (refcounted, so two
        # co-resident sessions occupy less than 2x prompt blocks), hence
        # the long 40-token decode: growth crosses 5 block boundaries per
        # session and must overrun the pool, forcing preemption.
        probe = SpeContextServer(tiny_gqa_model, config).pool
        prompt_blocks = max(
            probe.blocks_for_tokens(r.prompt_len) for r in requests
        )
        pressured = engine_config(
            tiny_tokenizer, pool_blocks=2 * prompt_blocks + 1
        )
        with kind(tiny_gqa_model, pressured, cluster_config(2)) as executor:
            gids = [executor.add_request(clone(r)) for r in requests]
            outputs = executor.run()
            log = executor.preemption_log
        assert len(log) > 0  # at least one replica hit pressure
        assert {e.replica for e in log} <= {0, 1}
        assert {e.event.request_id for e in log} <= set(gids)  # global ids
        assert [o.token_ids for o in outputs] == solo

    @pytest.fixture(scope="class")
    def reference(self, tiny_gqa_model, tiny_tokenizer):
        """Solo ground truth: every request on a one-worker executor."""
        requests = mixed_policy_requests(tiny_tokenizer)
        with InProcessExecutor(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(1)
        ) as executor:
            streams, reasons, _ = run_trace(executor, requests)
        return requests, streams, reasons

    @pytest.mark.parametrize("n_workers", (1, 2, 4))
    def test_executors_agree_at_every_width(
        self, tiny_gqa_model, tiny_tokenizer, reference, n_workers
    ):
        requests, ref_streams, ref_reasons = reference
        config = engine_config(tiny_tokenizer)
        runs = {}
        for kind in EXECUTORS:
            with kind(
                tiny_gqa_model, config, cluster_config(n_workers)
            ) as executor:
                assert executor.n_workers == n_workers
                runs[kind.kind] = run_trace(executor, requests)
        inproc, multiproc = runs["inproc"], runs["multiproc"]
        # Streams, finish reasons and placements: multiproc == inproc.
        assert multiproc == inproc
        # Placement never changes tokens: both equal the solo reference.
        assert inproc[0] == ref_streams
        assert inproc[1] == ref_reasons
        if n_workers > 1:
            assert len(set(inproc[2].values())) > 1  # actually spread out


# ---- merged views ------------------------------------------------------------


@pytest.mark.parametrize("kind", EXECUTORS)
class TestExecutorViews:
    def run_cluster(self, kind, model, tokenizer, router="prefix_affinity"):
        requests = shared_prefix_requests(tokenizer, "streaming", n=6)
        trace = poisson_trace(np.random.default_rng(5), requests, 2.0)
        cluster = cluster_config(3, router=router, stickiness_tokens=8)
        with kind(model, engine_config(tokenizer), cluster) as executor:
            outputs = replay_trace(executor, trace)
        return executor, outputs

    def test_global_ids_and_routing_totals(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        executor, outputs = self.run_cluster(
            kind, tiny_gqa_model, tiny_tokenizer
        )
        ids = [o.request_id for o in outputs]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert [o.request_id for o in executor.outputs] == ids
        assert executor.routing.total_routed == len(outputs)

    def test_merged_stream_matches_outputs(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        requests = shared_prefix_requests(tiny_tokenizer, "streaming", n=6)
        with kind(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(3)
        ) as executor:
            streams, _, placements = run_trace(executor, requests)
            assert sorted(set(placements.values())) == [0, 1, 2]
            for output in executor.outputs:
                # Session-relative steps arrive in order, exactly once.
                assert streams[output.request_id] == list(
                    enumerate(output.token_ids)
                )

    def test_affinity_routing_colocates_groups(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        affinity, outputs = self.run_cluster(
            kind, tiny_gqa_model, tiny_tokenizer
        )
        routing = affinity.routing
        # One cold placement (the first request), everything else sticks.
        assert sum(routing.cold) == 1
        assert sum(routing.affinity_hits) == routing.total_routed - 1
        assert sum(routing.affinity_misses) == 0
        assert routing.hit_rate == 1.0
        reused = sum(o.stats.prefix_reused_tokens for o in outputs)
        assert reused > 0
        # Round robin leaves that affinity on the table.
        blind, blind_outputs = self.run_cluster(
            kind, tiny_gqa_model, tiny_tokenizer, router="round_robin"
        )
        assert sum(blind.routing.affinity_misses) > 0
        assert (
            sum(o.stats.prefix_reused_tokens for o in blind_outputs) < reused
        )

    def test_observer_audits_every_replica_every_step(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        requests = shared_prefix_requests(tiny_tokenizer, "streaming", n=4)
        trace = poisson_trace(np.random.default_rng(5), requests, 1.0)
        stepped: list[float] = []

        def observer(executor) -> None:
            stepped.append(executor.clock)
            assert executor.audit_pools() == 2

        with kind(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(2)
        ) as executor:
            replay_trace(executor, trace, observer)
        assert len(stepped) > 0 and stepped == sorted(stepped)

    def test_rejected_submission_leaves_executor_untouched(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        with kind(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, pool_blocks=8),
            cluster_config(2, router="prefix_affinity"),
        ) as executor:
            huge = GenerationRequest(
                np.arange(1, 200), sampling=SamplingParams(max_new_tokens=4)
            )
            with pytest.raises(ValueError, match="KV blocks"):
                executor.add_request(huge)
            assert huge.request_id is None
            assert executor.routing.total_routed == 0
            assert not executor.has_unfinished
            ok = shared_prefix_requests(tiny_tokenizer, "streaming", n=1)[0]
            assert executor.add_request(ok) == 0

# ---- failover ----------------------------------------------------------------


class TestExecutorFailover:
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_killed_worker_streams_stay_exactly_once(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        """Death mid-trace: client streams bit-match the no-death run."""
        requests = mixed_policy_requests(tiny_tokenizer)
        config = engine_config(tiny_tokenizer)
        with kind(
            tiny_gqa_model, config, cluster_config(3)
        ) as executor:
            baseline = run_trace(executor, requests)
        with kind(
            tiny_gqa_model, config, cluster_config(3)
        ) as executor:
            streams, reasons, _ = run_trace(executor, requests, kill=(2, 1))
            assert executor.degraded
            assert executor.n_alive == 2
            health = executor.health()
            assert [w.alive for w in health] == [True, False, True]
            assert all(w.inflight == 0 for w in health)
            # The dead worker's requests were re-placed on survivors.
            assert executor.resubmissions
            assert all(w != 1 for _, w in executor.resubmissions)
        assert streams == baseline[0]
        assert reasons == baseline[1]

    def test_real_process_death_is_detected_and_recovered(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """An actual SIGTERM'd child is quarantined on the next wave."""
        requests = mixed_policy_requests(tiny_tokenizer)
        config = engine_config(tiny_tokenizer)
        with MultiprocExecutor(
            tiny_gqa_model, config, cluster_config(3)
        ) as executor:
            baseline = run_trace(executor, requests)
        with MultiprocExecutor(
            tiny_gqa_model, config, cluster_config(3, heartbeat_s=30.0)
        ) as executor:
            for request in requests:
                executor.add_request(clone(request))
            executor.step()
            victim = executor._handles[2]
            victim._proc.terminate()
            victim._proc.join(timeout=10)
            streams: dict[int, list] = {}
            reasons = {}
            while executor.has_unfinished:
                finished = executor.step()
                for event in executor.pop_stream_events():
                    streams.setdefault(event.request_id, []).append(
                        (event.step, event.token_id)
                    )
                for output in finished:
                    reasons[output.request_id] = output.finish_reason
            assert executor.degraded
            assert executor.health()[2].exitcode is not None
            assert executor.resubmissions
        # pop_stream_events buffers across steps, so the dict holds the
        # complete client streams despite the mid-run collection start.
        assert streams == baseline[0]
        assert reasons == baseline[1]

    def test_submission_routes_around_dead_workers(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        requests = mixed_policy_requests(tiny_tokenizer, n=4)
        with InProcessExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            cluster_config(3),
        ) as executor:
            assert executor.kill_worker(0) == []  # idle: no orphans
            gids = [executor.add_request(clone(r)) for r in requests]
            for gid in gids:
                assert executor.worker_of(gid) != 0
            outputs = executor.run()
            assert [o.request_id for o in outputs] == gids
            assert executor.has_unfinished is False

    def test_all_workers_dead_is_unavailable(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        request = mixed_policy_requests(tiny_tokenizer, n=1)[0]
        with InProcessExecutor(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(2)
        ) as executor:
            executor.add_request(clone(request))
            executor.kill_worker(1)
            # Killing the last worker cannot recover its in-flight work.
            with pytest.raises(EngineUnavailableError, match="all workers"):
                executor.kill_worker(0)
            with pytest.raises(EngineUnavailableError, match="no live"):
                executor.add_request(clone(request))

    def test_abort_and_drain(self, tiny_gqa_model, tiny_tokenizer):
        requests = mixed_policy_requests(tiny_tokenizer, n=3)
        with InProcessExecutor(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(2)
        ) as executor:
            gids = [executor.add_request(clone(r)) for r in requests]
            assert executor.abort(gids[1]) is True
            assert executor.abort(gids[1]) is False  # already gone
            assert executor.abort(999) is False  # unknown id
            outputs = executor.drain()
            assert [o.request_id for o in outputs] == [gids[0], gids[2]]
            with pytest.raises(EngineUnavailableError, match="draining"):
                executor.add_request(clone(requests[0]))


# ---- validation and portability ----------------------------------------------


class TestExecutorValidation:
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_worker_side_errors_forward_and_leave_cursor_intact(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        requests = mixed_policy_requests(tiny_tokenizer, n=2)
        config = engine_config(tiny_tokenizer)
        with kind(tiny_gqa_model, config, cluster_config(2)) as executor:
            bad = clone(requests[0])
            bad.policy = "not-a-policy"
            with pytest.raises(UnknownPolicyError, match="unknown policy"):
                executor.add_request(bad)
            hot = clone(requests[0])
            hot.sampling = SamplingParams(
                max_new_tokens=4, temperature=0.7, seed=None
            )
            with pytest.raises(ValueError, match="requires a seed"):
                executor.add_request(hot)
            placements = [
                executor.worker_of(executor.add_request(clone(r)))
                for r in requests
            ]
        with kind(tiny_gqa_model, config, cluster_config(2)) as executor:
            clean = [
                executor.worker_of(executor.add_request(clone(r)))
                for r in requests
            ]
        # Rejections restored the router cursor: placement is unchanged
        # versus a run that never saw the bad submissions.
        assert placements == clean

    @pytest.mark.parametrize("kind", (SpeContextServer, *EXECUTORS))
    def test_requests_are_plain_data_on_every_frontend(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        """Names and seeds only: the single server and both executors
        refuse the same requests with the same typed (HTTP 400) error,
        and stay retryable afterwards."""
        base = mixed_policy_requests(tiny_tokenizer, n=1)[0]
        with pytest.raises(RequestValidationError, match="registry name"):
            GenerationRequest(base.prompt_ids, policy=object())
        with pytest.raises(TypeError, match="rng"):
            GenerationRequest(base.prompt_ids, rng=np.random.default_rng(3))
        config = engine_config(tiny_tokenizer)
        with contextlib.ExitStack() as stack:
            if kind is SpeContextServer:
                frontend = SpeContextServer(tiny_gqa_model, config)
            else:
                frontend = stack.enter_context(
                    kind(tiny_gqa_model, config, cluster_config(1))
                )
            prebuilt = clone(base)
            prebuilt.policy = object()  # set after construction
            head_opts = clone(base)
            head_opts.policy = "specontext"
            head_opts.policy_opts = {"rng": 1}
            for bad, match in ((prebuilt, "registry name"), (head_opts, "level")):
                with pytest.raises(RequestValidationError, match=match) as err:
                    frontend.add_request(bad)
                assert type(err.value) is RequestValidationError
                assert err.value.http_status == 400
                assert err.value.code == "invalid_request_error"
                assert bad.request_id is None
            assert frontend.add_request(clone(base)) == 0

    def test_make_executor_dispatch(self, tiny_gqa_model, tiny_tokenizer):
        config = engine_config(tiny_tokenizer)
        with make_executor(
            tiny_gqa_model, config, cluster_config(1, executor="inproc")
        ) as executor:
            assert isinstance(executor, InProcessExecutor)
        with pytest.raises(ValueError, match="must be 'inproc'"):
            cluster_config(1, executor="warp")  # rejected at config time


# ---- merged stats ------------------------------------------------------------


class TestExecutorStats:
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_merged_meter_and_routing(
        self, tiny_gqa_model, tiny_tokenizer, kind
    ):
        requests = mixed_policy_requests(tiny_tokenizer, n=6)
        with kind(
            tiny_gqa_model, engine_config(tiny_tokenizer), cluster_config(3)
        ) as executor:
            streams, reasons, placements = run_trace(executor, requests)
            meter = executor.stats()
            snapshots = executor.snapshots()
            assert not executor.shedding()
            assert len(meter.finished) == 6
            assert meter.generated_tokens == sum(
                len(s) for s in streams.values()
            )
            assert list(executor.routing.routed) == [2, 2, 2]
            assert executor.outputs == sorted(
                executor.outputs, key=lambda o: o.request_id
            )
            assert len(executor.outputs) == 6
            assert executor.clock > 0
        # The merged meter is the union of the per-worker records, not
        # an average of per-worker aggregates.
        assert sorted(snapshots) == [0, 1, 2]
        assert all(isinstance(s, WorkerSnapshot) for s in snapshots.values())
        union = ThroughputMeter()
        for snapshot in snapshots.values():
            assert snapshot.n_active == 0 and snapshot.reserved_tokens == 0
            for record in snapshot.meter.finished:
                union.record_finished(record)
        for q in (50, 95):
            assert meter.ttft_percentile(q) == union.ttft_percentile(q)
            assert meter.latency_percentile(q) == union.latency_percentile(q)


# ---- meter merge (no model needed) -------------------------------------------


def finished_record(rid, arrival, start, first, finish, out_len=4) -> RequestRecord:
    return RequestRecord(
        request_id=rid, in_len=8, out_len=out_len, arrival_s=arrival,
        start_s=start, finish_s=finish, first_token_s=first,
    )


class TestMeterMerge:
    def records(self):
        rng = np.random.default_rng(3)
        records = []
        for rid in range(24):
            arrival = float(rng.integers(0, 20))
            start = arrival + float(rng.integers(0, 4))
            first = start + 1.0
            finish = first + float(rng.integers(1, 9))
            records.append(
                finished_record(
                    rid, arrival, start, first, finish,
                    out_len=int(rng.integers(1, 12)),
                )
            )
        return records

    def test_merged_percentiles_match_union(self):
        records = self.records()
        union = ThroughputMeter()
        shards = [ThroughputMeter() for _ in range(3)]
        for i, record in enumerate(records):
            union.record_finished(record)
            shards[i % 3].record_finished(record)
        merged = ThroughputMeter.merge(*shards)
        for q in (50, 90, 95, 99):
            assert merged.latency_percentile(q) == union.latency_percentile(q)
            assert merged.ttft_percentile(q) == union.ttft_percentile(q)
            assert merged.queueing_delay_percentile(
                q
            ) == union.queueing_delay_percentile(q)
        assert merged.generated_tokens == union.generated_tokens
        assert merged.makespan_s == union.makespan_s
        assert merged.busy_s == union.busy_s
        assert merged.tokens_per_second == union.tokens_per_second

    def test_merge_counts_rejected_and_empty(self):
        empty = ThroughputMeter.merge(ThroughputMeter(), ThroughputMeter())
        assert empty.completion_rate == 1.0
        shard = ThroughputMeter()
        shard.record_rejected(RequestRecord(request_id=0, in_len=8, out_len=4))
        merged = ThroughputMeter.merge(shard)
        assert merged.n_rejected == 1

    def test_merge_is_a_view_not_a_deep_copy(self):
        shard = ThroughputMeter()
        shard.record_finished(finished_record(0, 0.0, 0.0, 1.0, 4.0))
        merged = ThroughputMeter.merge(shard)
        merged.record_finished(finished_record(1, 1.0, 1.0, 2.0, 5.0))
        assert len(shard.finished) == 1  # source untouched
        assert len(merged.finished) == 2
