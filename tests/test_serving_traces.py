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

import pickle
import warnings

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.core.retrieval_head import SpeContextPolicy
from repro.serving import (
    SCHEDULERS,
    SpeContextServer,
    make_executor,
    poisson_trace,
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
    """Two decode results used the same selections at every step."""
    assert ours.selection_digest == theirs.selection_digest
    assert not ours.selections and not theirs.selections  # the server keeps none


def assert_session_matches_solo(session, solo):
    """Tokens, every step's selections, the elastic-loading account and —
    for specontext — the retrieval head's final K cache, bit for bit."""
    assert session.result.token_ids == solo.result.token_ids
    assert_same_selections(session.result, solo.result)
    assert session.transfer == solo.transfer
    assert type(session.policy) is type(solo.policy)
    if isinstance(solo.policy, SpeContextPolicy):
        ours, theirs = session.policy, solo.policy
        assert solo.transfer  # the head really selected
        assert not ours.selection_history and not theirs.selection_history
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

    def test_recompute_victim_preempted_before_first_decode_restarts_fresh(
        self, tiny_gqa_model, tiny_tokenizer
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

    def test_recompute_victim_waits_without_kv(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A recompute victim drops its KV at preemption: while it waits
        it holds no cache rows (the log still reports what it freed), its
        export ships none, and the export still resumes exactly."""
        requests = [
            preemption_request(tiny_tokenizer, name) for name in ALL_NAMES[:4]
        ]
        config = pool_config(
            tiny_tokenizer, pool_blocks=9, preempt_mode="recompute"
        )
        server = SpeContextServer(tiny_gqa_model, config)
        for request in requests:
            server.add_request(clone(request))
        while not server.preemption_log:
            server.step()
        [event] = server.preemption_log
        [victim] = [s for s in server._waiting if s.preemptions]
        assert victim.request_id == event.request_id
        assert event.kv_bytes > 0
        assert victim.cache.seq_len == 0
        export = pickle.loads(pickle.dumps(server.export_session(event.request_id)))
        assert all(len(layer) == 0 for layer in export.session.cache.layers)
        target = SpeContextServer(tiny_gqa_model, config)
        target.import_session(export)
        [output] = target.run()
        assert output.token_ids == solo_token_streams(
            tiny_gqa_model, config, [requests[event.request_id]], clone
        )[0]

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
        assert set(SCHEDULERS.available()) == {"fcfs", "priority", "sjf"}

    @pytest.mark.parametrize("alias,canonical", [
        ("FIFO", "fcfs"),
        ("Priority", "priority"),
        ("shortest-prompt-first", "sjf"),
        ("SPF", "sjf"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert SCHEDULERS.resolve(alias) == canonical

    def test_unknown_scheduler_raises_with_available(self):
        with pytest.raises(KeyError, match="fcfs"):
            SCHEDULERS.make("round-robin")

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


def assert_outputs_bit_identical(outputs, reference):
    """Full GenerationOutput equality: tokens, stats and selection digest."""
    assert_same_generation(outputs, reference)
    for o, r in zip(outputs, reference):
        assert o.request_id == r.request_id
        assert o.stats.preemptions == r.stats.preemptions
        assert o.stats.swap_bytes == r.stats.swap_bytes
        assert o.stats.prefix_reused_tokens == r.stats.prefix_reused_tokens
        assert len(o.stats.offload_events) == len(r.stats.offload_events)


def assert_same_generation(outputs, reference):
    """Schedule-independent equality: everything a client can observe
    about *what was generated* — tokens, stop reasons, the selection
    digest and the transfer accounting. Schedule-dependent stats
    (preemptions, swap bytes, offload events, prefix reuse) may
    legitimately differ between two schedules of the same requests."""
    assert len(outputs) == len(reference)
    for o, r in zip(outputs, reference):
        assert o.token_ids == r.token_ids, o.request_id
        assert o.finish_reason == r.finish_reason
        assert o.stats.budget == r.stats.budget
        assert o.stats.bytes_transferred == r.stats.bytes_transferred
        assert o.stats.transfer_reduction == r.stats.transfer_reduction
        assert o.stats.mean_selection_overlap == r.stats.mean_selection_overlap
        assert_same_selections(o.stats.result, r.stats.result)


def solo_outputs(model, config, requests):
    """Each request run alone on a fresh identical server (the solo oracle
    of :func:`~repro.serving.trace.solo_token_streams`), whole outputs."""
    outputs = []
    for request in requests:
        solo = SpeContextServer(model, config)
        solo.add_request(clone(request))
        outputs.extend(solo.run())
    return outputs


# (request_id, clock, blocks_freed, kv_bytes) of every preemption in the
# same-step-completion trace below, per scheduler. Recorded while the
# server still had a waves-of-one decode mode, whose log (the literal
# one-session interleave) these equalled event for event.
SAME_STEP_PREEMPTIONS = {
    "fcfs": [(2, 14.0, 5, 151552), (4, 30.0, 4, 114688), (4, 36.0, 5, 139264)],
    "priority": [
        (2, 14.0, 5, 151552), (4, 40.0, 4, 114688), (4, 46.0, 5, 139264)
    ],
    "sjf": [(2, 14.0, 5, 151552), (4, 30.0, 4, 114688), (4, 36.0, 5, 139264)],
}


class TestBatchedDecodeEquivalence:
    """The fused server-wide decode path against the solo oracle for every
    policy — tokens, selection digests and transfer accounting — also
    under forced preemption, with the preemption decisions pinned."""

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

    def run_against_solo(
        self, model, tokenizer, requests, interarrival=1.5, **overrides
    ):
        """Replay one seeded trace through a server (``interarrival=0``:
        every request arrives at step 0); check every output against the
        same request run alone. Returns (server, outputs)."""
        config = pool_config(tokenizer, **overrides)
        server = SpeContextServer(model, config)
        trace = poisson_trace(
            np.random.default_rng(11), [clone(r) for r in requests], interarrival
        )
        outputs = replay_trace(server, trace)
        assert_same_generation(outputs, solo_outputs(model, config, requests))
        assert server.meter.generated_tokens == sum(
            len(o.token_ids) for o in outputs
        )
        return server, outputs

    @pytest.mark.parametrize("interarrival,max_concurrency", [
        (1.5, 8),
        (0, 4),  # all at once: half the batch queues behind the rest
    ])
    def test_all_policies_bit_identical(
        self, interarrival, max_concurrency, tiny_gqa_model, tiny_tokenizer
    ):
        requests = self.eight_policy_requests(tiny_tokenizer)
        server, outputs = self.run_against_solo(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            interarrival=interarrival,
            max_concurrency=max_concurrency,
        )
        streamed: dict[int, list[int]] = {}
        for event in server.pop_stream_events():
            streamed.setdefault(event.request_id, []).append(event.token_id)
        assert streamed == {o.request_id: o.token_ids for o in outputs}

    @pytest.mark.parametrize("interarrival", [1.5, 0])
    def test_all_policies_bit_identical_under_forced_preemption(
        self, interarrival, tiny_gqa_model, tiny_tokenizer
    ):
        """Pool sized for two prompts plus one spare block: completion
        requires preemption; everything still matches, whether arrivals
        are spread out or all land at step 0."""
        requests = self.eight_policy_requests(tiny_tokenizer, max_new_tokens=24)
        pool = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer)
        ).pool
        prompt_blocks = max(
            pool.blocks_for_tokens(r.prompt_len) for r in requests
        )
        server, _ = self.run_against_solo(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            interarrival=interarrival,
            pool_blocks=2 * prompt_blocks + 1,
        )
        assert len(server.preemption_log) > 0

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
        server, _ = self.run_against_solo(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=9,
            preempt_mode=mode,
        )
        assert len(server.preemption_log) > 0

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
        server, outputs = self.run_against_solo(
            tiny_gqa_model, tiny_tokenizer, requests
        )
        stats = server.pool.stats
        assert stats.prefix_hits > 0
        assert stats.prefix_blocks_reused * server.pool.block_size == sum(
            o.stats.prefix_reused_tokens for o in outputs
        )

    @pytest.mark.parametrize("scheduler", ["fcfs", "priority", "sjf"])
    def test_same_step_completion_under_pressure_bit_identical(
        self, scheduler, tiny_gqa_model, tiny_tokenizer
    ):
        """Sessions finishing in the very step a peer needs their blocks:
        the one-session interleave frees a finished session's blocks
        *before* the next session's reservation, so the wave must flush
        rather than preempt a session the interleave would have let
        finish. Varied generation lengths make completions land on many
        different pressure steps."""
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
        server, _ = self.run_against_solo(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=2 * prompt_blocks + 1,
            scheduler=scheduler,
        )
        assert [
            (e.request_id, e.clock, e.blocks_freed, e.kv_bytes)
            for e in server.preemption_log
        ] == SAME_STEP_PREEMPTIONS[scheduler]
