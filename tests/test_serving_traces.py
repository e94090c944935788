"""Trace-driven serving tests: pool pressure, preemption, prefix caching.

Replays seeded Poisson-arrival workloads with mixed policies and
priorities through the pool-backed server and asserts the invariants that
make the shared pool trustworthy:

- pool occupancy never exceeds capacity and nothing leaks;
- preempted requests finish with token streams bit-identical to solo runs
  (swap and recompute modes);
- prefix-cache hits never change tokens and cut prefill block allocations
  by >= 30% on shared-prefix workloads;
- no starvation under the priority scheduler;
- the PR-1 guarantee (batched == solo streams and meter totals for all 8
  policies at fixed seed) survives the pool, including under a forced
  preemption schedule.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.core.retrieval_head import SpeContextPolicy
from repro.serving import (
    SpeContextServer,
    make_executor,
    poisson_trace,
    registry,
    replay_trace,
)
from repro.serving.trace import TraceEntry, solo_token_streams
from tests.conftest import make_recall_prompt

warnings.filterwarnings("ignore", message="One of the clusters is empty")

ALL_NAMES = (
    "specontext", "quest", "h2o", "shadowkv", "clusterkv",
    "streaming", "sliding", "full",
)

def pool_config(tokenizer, **overrides) -> EngineConfig:
    defaults = dict(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=8,
        seed=0,
        block_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def filler_prompt(tokenizer, seed: int, n: int, prefix=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ids = [int(t) for t in tokenizer.random_filler_ids(rng, n)]
    if prefix is not None:
        ids = list(prefix) + ids
    return np.array([tokenizer.bos_id] + ids)


def clone(request: GenerationRequest) -> GenerationRequest:
    return GenerationRequest(
        request.prompt_ids.copy(),
        sampling=request.sampling,
        policy=request.policy,
        budget=request.budget,
        priority=request.priority,
    )


def tracked(server: SpeContextServer, request: GenerationRequest):
    """Submit; return the session record (its policy outlives the run)."""
    server.add_request(request)
    return server._waiting[-1]


def solo_sessions(model, config, requests):
    """Each request run alone on a fresh server, as finished sessions."""
    sessions = []
    for request in requests:
        solo = SpeContextServer(model, config)
        sessions.append(tracked(solo, clone(request)))
        solo.run()
    return sessions


def assert_same_selections(ours, theirs):
    """Per-step {layer: selection} histories, equal array for array."""
    assert len(ours) == len(theirs)
    for step_ours, step_theirs in zip(ours, theirs):
        assert step_ours.keys() == step_theirs.keys()
        for layer, selection in step_theirs.items():
            assert np.array_equal(step_ours[layer], selection), layer


def assert_session_matches_solo(session, solo):
    """Tokens, every step's selections and — for specontext — the
    retrieval head's selection history and final K cache, bit for bit."""
    assert session.result.token_ids == solo.result.token_ids
    assert_same_selections(session.result.selections, solo.result.selections)
    assert type(session.policy) is type(solo.policy)
    if isinstance(solo.policy, SpeContextPolicy):
        ours, theirs = session.policy, solo.policy
        assert len(ours.selection_history) == len(theirs.selection_history) > 0
        for a, b in zip(ours.selection_history, theirs.selection_history):
            assert np.array_equal(a, b)
        assert "noise" in theirs.head.roles
        assert np.array_equal(ours.head.keys, theirs.head.keys)


def preemption_request(tokenizer, name: str, priority: int = 0):
    """The forced-preemption matrix's request for policy ``name``."""
    return GenerationRequest(
        filler_prompt(tokenizer, 40 + ALL_NAMES.index(name), 28),
        SamplingParams(max_new_tokens=14),
        policy=name,
        budget=16,  # below the prompt: every policy really selects
        priority=priority,
    )


@pytest.fixture(scope="module")
def solo_by_policy(tiny_gqa_model, tiny_tokenizer):
    requests = [preemption_request(tiny_tokenizer, name) for name in ALL_NAMES]
    sessions = solo_sessions(tiny_gqa_model, pool_config(tiny_tokenizer), requests)
    return dict(zip(ALL_NAMES, sessions))


def mixed_workload(tokenizer, n=8, max_new_tokens=12, prompt_tokens=30):
    """One request per policy, varied prompt lengths and priorities."""
    requests = []
    for i in range(n):
        prompt = filler_prompt(tokenizer, 100 + i, prompt_tokens + 3 * i)
        requests.append(GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            policy=ALL_NAMES[i % len(ALL_NAMES)],
            budget=48 if i % 2 else 64,
            priority=i % 3,
        ))
    return requests


def occupancy_observer(server: SpeContextServer, high_water: list[int]):
    def observe(s: SpeContextServer) -> None:
        assert s.pool.n_used <= s.pool.capacity
        s.pool.audit(allow_spec_outstanding=True)
        high_water.append(s.pool.n_used)
    return observe


class TestTraceHarness:
    def test_poisson_trace_seeded_and_monotonic(self, tiny_tokenizer):
        requests = mixed_workload(tiny_tokenizer, n=6)
        a = poisson_trace(np.random.default_rng(7), requests, 3.0)
        b = poisson_trace(np.random.default_rng(7), requests, 3.0)
        assert [e.arrival_step for e in a] == [e.arrival_step for e in b]
        arrivals = [e.arrival_step for e in a]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0
        burst = poisson_trace(np.random.default_rng(7), requests, 0.0)
        assert all(e.arrival_step == 0 for e in burst)

    def test_replay_jumps_idle_gaps(self, tiny_gqa_model, tiny_tokenizer):
        server = SpeContextServer(tiny_gqa_model, pool_config(tiny_tokenizer))
        late = TraceEntry(
            arrival_step=50,
            request=GenerationRequest(
                filler_prompt(tiny_tokenizer, 1, 20),
                SamplingParams(max_new_tokens=2),
                policy="full",
            ),
        )
        outputs = replay_trace(server, [late])
        assert len(outputs) == 1
        assert server.meter.finished[0].arrival_s == 50.0


class TestPoolPressureServing:
    def test_overcommitted_pool_completes_via_preemption_bit_identical(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Acceptance: pool ~half the aggregate KV of an 8-request
        mixed-policy workload; everything completes through preemption
        with token streams bit-identical to solo runs."""
        requests = mixed_workload(tiny_tokenizer)
        config = pool_config(tiny_tokenizer)
        pool = SpeContextServer(tiny_gqa_model, config).pool
        aggregate_blocks = sum(
            pool.blocks_for_tokens(r.prompt_len + r.sampling.max_new_tokens)
            for r in requests
        )
        per_request_max = max(
            pool.blocks_for_tokens(r.prompt_len + r.sampling.max_new_tokens)
            for r in requests
        )
        half_pool = max(aggregate_blocks // 2, per_request_max)

        solo = solo_token_streams(
            tiny_gqa_model, pool_config(tiny_tokenizer), requests, clone
        )
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(tiny_tokenizer, pool_blocks=half_pool),
        )
        trace = poisson_trace(
            np.random.default_rng(3), [clone(r) for r in requests], 1.5
        )
        high_water: list[int] = []
        outputs = replay_trace(
            server, trace, observer=occupancy_observer(server, high_water)
        )
        assert len(outputs) == len(requests)
        assert [o.token_ids for o in outputs] == solo
        assert len(server.preemption_log) > 0  # pressure actually bit
        assert max(high_water) <= half_pool
        # Every block is back: free, or held only by the prefix cache.
        assert server.pool.n_used == server.pool.n_evictable()
        assert sum(o.stats.preemptions for o in outputs) == len(
            server.preemption_log
        )

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    @pytest.mark.parametrize("scheduler", ["fcfs", "priority", "sjf"])
    def test_preemption_exact_across_modes_and_schedulers(
        self, mode, scheduler, solo_by_policy, tiny_gqa_model, tiny_tokenizer
    ):
        """All 8 policies are preempted in every mode x scheduler cell, and
        each ends with the tokens, per-step selections and (specontext)
        retrieval-head state of its solo run — recompute included, because
        every policy's state is a function of the tokens it has seen.
        Three rotations of the submission order move the three victims of
        a run over all eight policies."""
        victims = set()
        for rotation in range(3):
            names = ALL_NAMES[rotation:] + ALL_NAMES[:rotation]
            requests = [
                preemption_request(tiny_tokenizer, name, priority=i % 2)
                for i, name in enumerate(names)
            ]
            server = SpeContextServer(
                tiny_gqa_model,
                pool_config(
                    tiny_tokenizer,
                    pool_blocks=9,
                    preempt_mode=mode,
                    scheduler=scheduler,
                ),
            )
            sessions = [tracked(server, request) for request in requests]
            outputs = server.run()
            victims |= {names[e.request_id] for e in server.preemption_log}
            for name, session in zip(names, sessions):
                assert_session_matches_solo(session, solo_by_policy[name])
            if mode == "swap":
                preempted = [o for o in outputs if o.stats.preemptions]
                assert preempted and all(
                    o.stats.swap_bytes > 0 for o in preempted
                )
        assert victims == set(ALL_NAMES)

    @pytest.mark.parametrize("batched", [True, False])
    def test_recompute_victim_preempted_before_first_decode_restarts_fresh(
        self, batched, tiny_gqa_model, tiny_tokenizer
    ):
        """The one recompute-resume with nothing to replay: a
        sparse-from-first-token session prefilled and preempted in the
        same step has drawn no token, so it restarts as a fresh prefill
        (and may hit its own still-cached prompt blocks) instead of
        replaying. Streams and pool invariants must not notice."""
        early = GenerationRequest(
            filler_prompt(tiny_tokenizer, 60, 23),  # 24 tokens = 3 blocks
            SamplingParams(max_new_tokens=12),
            policy="quest",
        )
        late = GenerationRequest(
            filler_prompt(tiny_tokenizer, 61, 31),  # 32 tokens = 4 blocks
            SamplingParams(max_new_tokens=6),
            policy="h2o",
        )
        config = pool_config(
            tiny_tokenizer,
            pool_blocks=8,
            preempt_mode="recompute",
            batched_decode=batched,
        )
        solo = solo_token_streams(tiny_gqa_model, config, [early, late], clone)
        server = SpeContextServer(tiny_gqa_model, config)
        # `late` arrives exactly when `early` crosses into its 5th block:
        # its prompt takes the last 4 free blocks, then early's decode
        # reservation evicts it (fcfs preempts the newest arrival).
        trace = [TraceEntry(0, clone(early)), TraceEntry(8, clone(late))]
        events: list = []
        tokens_at_preemption: list[int] = []

        def observe(s: SpeContextServer) -> None:
            s.audit_pool()
            events.extend(s.pop_stream_events())
            if s.preemption_log and not tokens_at_preemption:
                tokens_at_preemption.append(
                    sum(e.request_id == 1 for e in events)
                )

        outputs = replay_trace(server, trace, observer=observe)
        [event] = server.preemption_log
        assert (event.request_id, event.clock, event.mode) == (1, 8.0, "recompute")
        assert tokens_at_preemption == [0]  # evicted before its first token
        assert [o.token_ids for o in outputs] == solo
        assert outputs[1].stats.preemptions == 1
        assert server.pool.n_used == server.pool.n_evictable()

    def test_no_starvation_under_priority_flood(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A low-priority early request is preempted/deferred by a flood
        of high-priority arrivals but still finishes (finite work => no
        starvation), and high priority is honoured at admission."""
        low = GenerationRequest(
            filler_prompt(tiny_tokenizer, 1, 30),
            SamplingParams(max_new_tokens=16),
            policy="streaming",
            priority=0,
        )
        flood = [
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 10 + i, 30),
                SamplingParams(max_new_tokens=8),
                policy="streaming",
                priority=5,
            )
            for i in range(5)
        ]
        trace = [TraceEntry(0, low)] + [
            TraceEntry(1 + i, r) for i, r in enumerate(flood)
        ]
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer,
                pool_blocks=10,
                scheduler="priority",
                max_concurrency=2,
            ),
        )
        outputs = replay_trace(server, trace)
        assert len(outputs) == 6  # nobody starves
        finished = {r.request_id: r for r in server.meter.finished}
        low_finish = finished[0].finish_s
        assert all(
            finished[r.request_id].finish_s <= low_finish
            for r in flood
            if r.request_id is not None
        )

    def test_single_oversized_request_rejected_at_submit(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer, pool_blocks=3)
        )
        request = GenerationRequest(
            filler_prompt(tiny_tokenizer, 2, 40),
            SamplingParams(max_new_tokens=4),
            policy="full",
        )
        with pytest.raises(ValueError, match="KV blocks"):
            server.add_request(request)
        assert request.request_id is None  # retryable, no id burned

    def test_request_past_max_position_rejected_at_submit(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Regression: prompt + max_new_tokens past the model's RoPE table
        used to be admitted and decode beyond max_position instead of
        failing at submission."""
        server = SpeContextServer(tiny_gqa_model, pool_config(tiny_tokenizer))
        max_position = tiny_gqa_model.config.max_position
        request = GenerationRequest(
            filler_prompt(tiny_tokenizer, 2, 40),
            SamplingParams(max_new_tokens=max_position),
            policy="full",
        )
        with pytest.raises(ValueError, match="max_position"):
            server.add_request(request)
        assert request.request_id is None  # retryable, no id burned
        # The boundary itself is fine: prompt + max_new == max_position.
        ok = GenerationRequest(
            filler_prompt(tiny_tokenizer, 2, 40),
            SamplingParams(max_new_tokens=max_position - 41),
            policy="full",
        )
        assert server.add_request(ok) == 0
        assert server.n_waiting == 1


class TestPrefixCaching:
    def shared_prefix_requests(self, tokenizer, n=6, prefix_tokens=48):
        prefix = [
            int(t)
            for t in tokenizer.random_filler_ids(
                np.random.default_rng(99), prefix_tokens
            )
        ]
        return [
            GenerationRequest(
                filler_prompt(tokenizer, 200 + i, 24, prefix=prefix),
                SamplingParams(max_new_tokens=4),
                policy="quest",
            )
            for i in range(n)
        ]

    def test_prefix_hits_never_change_tokens_and_save_blocks(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Acceptance: >= 30% fewer prefill-allocated blocks than the
        no-prefix-cache baseline, with bit-identical token streams."""
        requests = self.shared_prefix_requests(tiny_tokenizer)
        cached = SpeContextServer(tiny_gqa_model, pool_config(tiny_tokenizer))
        for request in requests:
            cached.add_request(clone(request))
        cached_outputs = cached.run()

        baseline = SpeContextServer(
            tiny_gqa_model,
            pool_config(tiny_tokenizer, enable_prefix_cache=False),
        )
        for request in requests:
            baseline.add_request(clone(request))
        baseline_outputs = baseline.run()

        assert [o.token_ids for o in cached_outputs] == [
            o.token_ids for o in baseline_outputs
        ]
        with_cache = cached.pool.stats.prefill_blocks_allocated
        without = baseline.pool.stats.prefill_blocks_allocated
        assert with_cache <= 0.7 * without, (with_cache, without)
        assert cached.pool.stats.prefix_hits >= len(requests) - 1
        assert any(o.stats.prefix_reused_tokens > 0 for o in cached_outputs)

    def test_prefix_reuse_exact_for_every_policy(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A cache warmed by a donor request never changes any policy's
        logits: the follower's stream equals its uncached solo run."""
        prefix = [
            int(t)
            for t in tiny_tokenizer.random_filler_ids(
                np.random.default_rng(7), 32
            )
        ]
        for name in ALL_NAMES:
            follower = GenerationRequest(
                filler_prompt(tiny_tokenizer, 300, 20, prefix=prefix),
                SamplingParams(max_new_tokens=3),
                policy=name,
            )
            solo = solo_token_streams(
                tiny_gqa_model,
                pool_config(tiny_tokenizer, enable_prefix_cache=False),
                [follower],
                clone,
            )[0]
            server = SpeContextServer(
                tiny_gqa_model, pool_config(tiny_tokenizer)
            )
            donor = GenerationRequest(
                filler_prompt(tiny_tokenizer, 301, 16, prefix=prefix),
                SamplingParams(max_new_tokens=1),
                policy="full",
            )
            server.add_request(donor)
            server.run()
            server.add_request(clone(follower))
            output = server.run()[0]
            assert output.stats.prefix_reused_tokens > 0, name
            assert output.token_ids == solo, name


class TestStreaming:
    def test_stream_events_reassemble_outputs(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, pool_config(tiny_tokenizer))
        for i in range(3):
            server.add_request(GenerationRequest(
                filler_prompt(tiny_tokenizer, 60 + i, 20 + i),
                SamplingParams(max_new_tokens=4),
                policy="streaming",
            ))
        streams: dict[int, list[int]] = {}
        seen_steps: dict[int, int] = {}
        while server.has_unfinished:
            server.step()
            for event in server.pop_stream_events():
                streams.setdefault(event.request_id, []).append(event.token_id)
                # steps arrive in order, exactly once
                assert event.step == seen_steps.get(event.request_id, 0)
                seen_steps[event.request_id] = event.step + 1
        assert server.pop_stream_events() == []
        for output in server.outputs:
            assert streams[output.request_id] == output.token_ids


class TestSchedulerRegistry:
    def test_canonical_names(self):
        assert set(registry.available("scheduler")) == {"fcfs", "priority", "sjf"}

    @pytest.mark.parametrize("alias,canonical", [
        ("FIFO", "fcfs"),
        ("Priority", "priority"),
        ("shortest-prompt-first", "sjf"),
        ("SPF", "sjf"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert registry.resolve("scheduler", alias) == canonical

    def test_unknown_scheduler_raises_with_available(self):
        with pytest.raises(KeyError, match="fcfs"):
            registry.make("scheduler", "round-robin")

    def test_server_rejects_unknown_scheduler(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        with pytest.raises(KeyError):
            SpeContextServer(
                tiny_gqa_model,
                pool_config(tiny_tokenizer, scheduler="nope"),
            )


class TestCli:
    def test_cli_reports_pool_and_preemption_stats(self, capsys):
        from repro.serving import cli

        rc = cli.main([
            "--requests", "4", "--max-new-tokens", "4", "--prompt-len", "40",
            "--policies", "quest,streaming", "--pool-blocks", "64",
            "--block-size", "8", "--scheduler", "priority",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "continuous batching" in out
        assert "preemptions" in out
        assert "priority scheduling" in out

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_cli_replicas_honour_executor_flag(
        self, replicas, capsys, monkeypatch
    ):
        """``--replicas N --executor multiproc`` runs real worker
        processes for every N — N=1 used to build a bare server and drop
        ``--executor`` silently — and reaps them on exit."""
        from repro.serving import cli

        built = []

        def recording_make_executor(*args):
            built.append(make_executor(*args))
            return built[-1]

        monkeypatch.setattr(cli, "make_executor", recording_make_executor)
        rc = cli.main([
            "--requests", "4", "--max-new-tokens", "4", "--prompt-len", "40",
            "--policies", "full,streaming", "--block-size", "8",
            "--replicas", str(replicas), "--executor", "multiproc",
            "--spec-decode-k", "2",
        ])
        assert rc == 0
        [executor] = built
        assert executor.kind == "multiproc"
        procs = [handle._proc for handle in executor._handles]
        assert len(procs) == replicas
        assert all(p.pid is not None for p in procs)
        assert all(p.exitcode == 0 for p in procs)  # shut down, not leaked
        out = capsys.readouterr().out
        assert f"{replicas} replica" in out and "(multiproc)" in out
        assert "verify passes" in out  # spec summary works for N > 1
        assert "blocks reused" in out  # per-replica table from snapshots()

    @pytest.mark.parametrize("argv", [
        ["--policies", "not-a-policy"],
        ["--scheduler", "not-a-scheduler"],
    ])
    def test_cli_rejects_unknown_names(self, argv, capsys):
        from repro.serving import cli

        assert cli.main(argv) == 2
        assert "available" in capsys.readouterr().err


class TestPr1RegressionUnderPool:
    """The PR-1 guarantee, re-pinned on the pool-backed server."""

    def eight_policy_requests(self, tokenizer, max_new_tokens=6):
        requests = []
        for i, name in enumerate(ALL_NAMES):
            prompt, _, _ = make_recall_prompt(
                tokenizer, np.random.default_rng(100 + i), n_filler=120
            )
            requests.append(GenerationRequest(
                prompt,
                sampling=SamplingParams(max_new_tokens=max_new_tokens),
                policy=name,
                budget=48 if i % 2 else 64,
            ))
        return requests

    def config(self, tokenizer, **overrides):
        overrides.setdefault("max_concurrency", 4)
        return pool_config(tokenizer, **overrides)

    def test_batched_equals_solo_all_policies(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        requests = self.eight_policy_requests(tiny_tokenizer)
        solo = solo_token_streams(
            tiny_gqa_model, self.config(tiny_tokenizer), requests, clone
        )
        solo_generated = sum(len(s) for s in solo)
        batched = SpeContextServer(tiny_gqa_model, self.config(tiny_tokenizer))
        for request in requests:
            batched.add_request(clone(request))
        outputs = batched.run()
        assert [o.token_ids for o in outputs] == solo
        assert batched.meter.generated_tokens == solo_generated

    def test_batched_equals_solo_under_forced_preemption(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """All 8 policies at fixed seed with a pool too small for the
        batch: completion requires preemption, streams stay identical."""
        # Generations cross >= 3 block boundaries each; the pool holds two
        # prompts plus one spare block, so two co-resident sessions must
        # fight over growth blocks and the loser is preempted.
        requests = self.eight_policy_requests(tiny_tokenizer, max_new_tokens=24)
        solo = solo_token_streams(
            tiny_gqa_model, self.config(tiny_tokenizer), requests, clone
        )
        pool = SpeContextServer(
            tiny_gqa_model, self.config(tiny_tokenizer)
        ).pool
        prompt_blocks = max(
            pool.blocks_for_tokens(r.prompt_len) for r in requests
        )
        server = SpeContextServer(
            tiny_gqa_model,
            self.config(
                tiny_tokenizer,
                pool_blocks=2 * prompt_blocks + 1,
                max_concurrency=8,
            ),
        )
        for request in requests:
            server.add_request(clone(request))
        outputs = server.run()
        assert len(server.preemption_log) > 0
        assert [o.token_ids for o in outputs] == solo
        assert server.meter.generated_tokens == sum(len(s) for s in solo)


def assert_outputs_bit_identical(batched_outputs, sequential_outputs):
    """Full GenerationOutput equality: tokens, stats and selection history."""
    assert len(batched_outputs) == len(sequential_outputs)
    for b, s in zip(batched_outputs, sequential_outputs):
        assert b.request_id == s.request_id
        assert b.token_ids == s.token_ids, b.request_id
        assert b.finish_reason == s.finish_reason
        sb, ss = b.stats, s.stats
        assert sb.budget == ss.budget
        assert sb.bytes_transferred == ss.bytes_transferred
        assert sb.transfer_reduction == ss.transfer_reduction
        assert sb.mean_selection_overlap == ss.mean_selection_overlap
        assert sb.preemptions == ss.preemptions
        assert sb.swap_bytes == ss.swap_bytes
        assert sb.prefix_reused_tokens == ss.prefix_reused_tokens
        assert len(sb.offload_events) == len(ss.offload_events)
        assert_same_selections(sb.result.selections, ss.result.selections)


class TestBatchedDecodeEquivalence:
    """The tentpole guarantee: the fused server-wide decode path is
    bit-identical to the sequential reference for every policy — tokens,
    selection histories, GenerationStats and prefix-cache reuse — also
    under forced preemption."""

    def eight_policy_requests(self, tokenizer, max_new_tokens=8):
        requests = []
        for i, name in enumerate(ALL_NAMES):
            prompt, _, _ = make_recall_prompt(
                tokenizer, np.random.default_rng(700 + i), n_filler=110 + 5 * i
            )
            requests.append(GenerationRequest(
                prompt,
                sampling=SamplingParams(max_new_tokens=max_new_tokens),
                policy=name,
                budget=48 if i % 2 else 64,
                priority=i % 3,
            ))
        return requests

    def run_pair(self, model, tokenizer, requests, trace_seed=11, **overrides):
        """Replay one seeded trace through a batched and a sequential
        server; returns (batched_server, sequential_server, outputs)."""
        servers, outputs = [], []
        for batched in (True, False):
            config = pool_config(tokenizer, batched_decode=batched, **overrides)
            server = SpeContextServer(model, config)
            trace = poisson_trace(
                np.random.default_rng(trace_seed),
                [clone(r) for r in requests],
                1.5,
            )
            outputs.append(replay_trace(server, trace))
            servers.append(server)
        return servers[0], servers[1], outputs[0], outputs[1]

    def test_all_policies_bit_identical(self, tiny_gqa_model, tiny_tokenizer):
        requests = self.eight_policy_requests(tiny_tokenizer)
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model, tiny_tokenizer, requests
        )
        assert_outputs_bit_identical(b_out, s_out)
        assert batched.meter.generated_tokens == sequential.meter.generated_tokens
        assert [e.token_id for e in batched.pop_stream_events()] == [
            e.token_id for e in sequential.pop_stream_events()
        ]

    def test_all_policies_bit_identical_under_forced_preemption(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Pool sized for two prompts plus one spare block: completion
        requires preemption in both modes; everything still matches."""
        requests = self.eight_policy_requests(tiny_tokenizer, max_new_tokens=24)
        pool = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer)
        ).pool
        prompt_blocks = max(
            pool.blocks_for_tokens(r.prompt_len) for r in requests
        )
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=2 * prompt_blocks + 1,
        )
        assert len(batched.preemption_log) > 0
        assert len(sequential.preemption_log) > 0
        assert_outputs_bit_identical(b_out, s_out)

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_preempt_modes_bit_identical(
        self, mode, tiny_gqa_model, tiny_tokenizer
    ):
        requests = [
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 70 + i, 28),
                SamplingParams(max_new_tokens=14),
                policy=name,
                budget=16,  # below the prompt: every policy really selects
            )
            for i, name in enumerate(ALL_NAMES)
        ]
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=9,
            preempt_mode=mode,
        )
        assert len(batched.preemption_log) > 0
        assert_outputs_bit_identical(b_out, s_out)

    def test_prefix_cache_reuse_identical(self, tiny_gqa_model, tiny_tokenizer):
        prefix = [
            int(t)
            for t in tiny_tokenizer.random_filler_ids(
                np.random.default_rng(42), 48
            )
        ]
        requests = [
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 800 + i, 20, prefix=prefix),
                SamplingParams(max_new_tokens=4),
                policy=ALL_NAMES[i % len(ALL_NAMES)],
            )
            for i in range(6)
        ]
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model, tiny_tokenizer, requests
        )
        assert_outputs_bit_identical(b_out, s_out)
        for server in (batched, sequential):
            assert server.pool.stats.prefix_hits > 0
        assert (
            batched.pool.stats.prefix_blocks_reused
            == sequential.pool.stats.prefix_blocks_reused
        )
        assert (
            batched.pool.stats.prefill_blocks_allocated
            == sequential.pool.stats.prefill_blocks_allocated
        )

    @pytest.mark.parametrize("scheduler", ["fcfs", "priority", "sjf"])
    def test_same_step_completion_under_pressure_bit_identical(
        self, scheduler, tiny_gqa_model, tiny_tokenizer
    ):
        """Sessions finishing in the very step a peer needs their blocks:
        the sequential loop frees a finished session's blocks *before* the
        next session's reservation, so the batched planner must flush its
        wave rather than preempt a session the reference path would have
        let finish. Varied generation lengths make completions land on
        many different pressure steps."""
        requests = [
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 60 + i, 26),
                SamplingParams(max_new_tokens=4 + 5 * i),
                policy=ALL_NAMES[i % len(ALL_NAMES)],
                priority=i % 3,
            )
            for i in range(6)
        ]
        pool = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer)
        ).pool
        prompt_blocks = max(
            pool.blocks_for_tokens(r.prompt_len) for r in requests
        )
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=2 * prompt_blocks + 1,
            scheduler=scheduler,
        )
        assert_outputs_bit_identical(b_out, s_out)
        assert [
            (e.request_id, e.clock, e.blocks_freed, e.kv_bytes)
            for e in batched.preemption_log
        ] == [
            (e.request_id, e.clock, e.blocks_freed, e.kv_bytes)
            for e in sequential.preemption_log
        ]

    def test_float32_kv_bit_identical_between_paths(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Reduced-precision KV storage serves faster but never splits the
        two decode paths apart."""
        requests = self.eight_policy_requests(tiny_tokenizer, max_new_tokens=6)
        batched, sequential, b_out, s_out = self.run_pair(
            tiny_gqa_model, tiny_tokenizer, requests, kv_dtype="float32"
        )
        assert_outputs_bit_identical(b_out, s_out)

    def test_batched_default_on(self, tiny_tokenizer):
        assert EngineConfig(bos_id=tiny_tokenizer.bos_id).batched_decode is True
