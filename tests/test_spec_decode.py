"""Speculative decoding tests: the cross-mode bit-identity matrix.

The tentpole guarantee under test: a server with ``spec_decode_k > 0``
produces byte-for-byte the streams, GenerationStats, selection histories
and pool counters of a never-drafted run — for every policy, draft
length, decode mode (sequential/batched) and prefill mode
(chunked/monolithic), including under forced preemption of a speculating
session and across executors and the HTTP frontend.

Structure:

- the full 8 policies x k in {1,2,4} x {sequential,batched} x
  {chunked,monolithic} matrix is ``@pytest.mark.slow`` (run with
  ``-m slow``); a smoke diagonal stays in tier-1;
- a Hypothesis oracle test drives the server with a scripted draft model
  of known accuracy and pins acceptance to an independent simulation of
  the commit rule (longest greedy prefix + exactly one bonus token);
- pool properties: spec reservations restore the free stack exactly and
  never move the allocated/freed ledger; promotions count as ordinary
  allocations;
- executor coverage: inproc == multiproc at 1/2/4 workers with
  speculation on, including a mid-trace worker kill;
- HTTP: SSE chunks reassemble to the non-streaming body and both match a
  direct server run, with speculation active;
- draft-model token_map units: out-of-map tokens reject the draft
  (empty proposal), never raise.
"""

from __future__ import annotations

import asyncio
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterConfig,
    EngineConfig,
    GenerationRequest,
    SamplingParams,
)
from repro.distill.dataset import DistillationDataset
from repro.distill.dlm import DraftModel
from repro.distill.trainer import DistillationTrainer
from repro.kvcache.pool import BlockTable, PagedKVPool
from repro.serving.engine import InProcessExecutor, MultiprocExecutor
from repro.serving.http import AsyncEngine, HttpServer
from repro.serving.server import SpeContextServer
from repro.serving.trace import solo_token_streams
from tests.conftest import free_order, make_recall_prompt
from tests.test_engine_executor import run_trace
from tests.test_http_frontend import request_json, sse_chunks
from tests.test_serving_traces import assert_outputs_bit_identical

warnings.filterwarnings("ignore", message="One of the clusters is empty")

ALL_NAMES = (
    "specontext", "quest", "h2o", "shadowkv", "clusterkv",
    "streaming", "sliding", "full",
)
ALL_K = (1, 2, 4)


def spec_config(tokenizer, k: int, **overrides) -> EngineConfig:
    defaults = dict(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=8,
        seed=0,
        block_size=8,
        spec_decode_k=k,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def recall_requests(tokenizer, policy: str, n=3, max_new_tokens=8):
    """Recall prompts (induction-friendly, so drafts sometimes land)."""
    requests = []
    for i in range(n):
        prompt, _, _ = make_recall_prompt(
            tokenizer, np.random.default_rng(300 + i), n_filler=100
        )
        requests.append(GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            policy=policy,
            budget=48 if i % 2 else 64,
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


def run_server(model, config, requests):
    server = SpeContextServer(model, config)
    for request in requests:
        server.add_request(clone(request))
    return server.run(), server


def server_fingerprint(server) -> tuple:
    """Pool ledger + occupancy + preemption count.

    The spec_* counters are deliberately excluded (observability on top,
    non-zero only in speculative runs). Exact free-stack *order* is only
    compared in single-session tests: with several sessions in a wave,
    one session promoting while another releases can swap which physical
    ids each consumed, without changing any stream or counter.
    """
    stats = server.pool.stats
    return (
        stats.allocated,
        stats.freed,
        stats.prefill_blocks_allocated,
        stats.prefix_blocks_reused,
        stats.prefix_queries,
        stats.prefix_hits,
        server.pool.n_free,
        len(server.preemption_log),
    )


def assert_spec_matches_reference(spec, ref):
    """Full cross-run equality: outputs, meters, pool, preemptions."""
    spec_outputs, spec_server = spec
    ref_outputs, ref_server = ref
    assert_outputs_bit_identical(spec_outputs, ref_outputs)
    assert server_fingerprint(spec_server) == server_fingerprint(ref_server)
    assert spec_server.meter.generated_tokens == ref_server.meter.generated_tokens


# ---- the cross-mode matrix ---------------------------------------------------


MODES = (
    ("sequential", "monolithic"),
    ("sequential", "chunked"),
    ("batched", "monolithic"),
    ("batched", "chunked"),
)


def mode_overrides(decode: str, prefill: str) -> dict:
    overrides = {"batched_decode": decode == "batched"}
    if prefill == "chunked":
        overrides["prefill_chunk_tokens"] = 32
    return overrides


class TestBitIdentityMatrix:
    """Spec streams == non-spec streams, all modes, all policies."""

    @pytest.fixture(scope="class")
    def reference(self, tiny_gqa_model, tiny_tokenizer):
        """Memoized k=0 runs, one per (policy, decode, prefill) cell."""
        cache = {}

        def get(policy: str, decode: str, prefill: str):
            key = (policy, decode, prefill)
            if key not in cache:
                config = spec_config(
                    tiny_tokenizer, 0, **mode_overrides(decode, prefill)
                )
                cache[key] = run_server(
                    tiny_gqa_model, config, recall_requests(tiny_tokenizer, policy)
                )
            return cache[key]

        return get

    def check_cell(self, model, tokenizer, reference, policy, k, decode, prefill):
        config = spec_config(tokenizer, k, **mode_overrides(decode, prefill))
        spec = run_server(model, config, recall_requests(tokenizer, policy))
        assert spec[1].spec_stats.spec_steps > 0  # speculation engaged
        assert_spec_matches_reference(spec, reference(policy, decode, prefill))

    @pytest.mark.slow
    @pytest.mark.parametrize("decode,prefill", MODES)
    @pytest.mark.parametrize("k", ALL_K)
    @pytest.mark.parametrize("policy", ALL_NAMES)
    def test_full_matrix(
        self, tiny_gqa_model, tiny_tokenizer, reference, policy, k, decode, prefill
    ):
        self.check_cell(
            tiny_gqa_model, tiny_tokenizer, reference, policy, k, decode, prefill
        )

    @pytest.mark.parametrize("policy", ALL_NAMES)
    def test_smoke_all_policies_batched(
        self, tiny_gqa_model, tiny_tokenizer, reference, policy
    ):
        """Tier-1 diagonal: every policy at k=2, batched + monolithic."""
        self.check_cell(
            tiny_gqa_model, tiny_tokenizer, reference,
            policy, 2, "batched", "monolithic",
        )

    @pytest.mark.parametrize("decode,prefill", MODES[:2] + MODES[3:])
    def test_smoke_cross_modes(
        self, tiny_gqa_model, tiny_tokenizer, reference, decode, prefill
    ):
        """Tier-1 cross-mode spot checks at k=4 on a stateful policy."""
        self.check_cell(
            tiny_gqa_model, tiny_tokenizer, reference,
            "specontext", 4, decode, prefill,
        )

    def test_smoke_chunked_with_token_budget(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Chunked prefill + max_step_tokens budget composes with spec."""
        overrides = dict(prefill_chunk_tokens=32, max_step_tokens=48)
        requests = recall_requests(tiny_tokenizer, "h2o", n=4)
        ref = run_server(
            tiny_gqa_model, spec_config(tiny_tokenizer, 0, **overrides), requests
        )
        spec = run_server(
            tiny_gqa_model, spec_config(tiny_tokenizer, 4, **overrides), requests
        )
        assert spec[1].spec_stats.spec_steps > 0
        assert_spec_matches_reference(spec, ref)

    def test_mixed_spec_and_sampled_sessions_share_a_wave(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Sampled (temperature > 0) sessions never speculate, but ride in
        the same fused verify call; both stay bit-identical."""
        requests = recall_requests(tiny_tokenizer, "sliding", n=2)
        requests.append(GenerationRequest(
            make_recall_prompt(
                tiny_tokenizer, np.random.default_rng(777), n_filler=100
            )[0],
            sampling=SamplingParams(
                max_new_tokens=8, temperature=0.8, seed=5
            ),
            policy="sliding",
        ))
        ref = run_server(tiny_gqa_model, spec_config(tiny_tokenizer, 0), requests)
        spec = run_server(tiny_gqa_model, spec_config(tiny_tokenizer, 2), requests)
        assert spec[1].spec_stats.spec_steps > 0
        assert_spec_matches_reference(spec, ref)


# ---- forced preemption of a speculating session ------------------------------


class TestSpecUnderForcedPreemption:
    """A speculating session must survive swap/recompute preemption with
    streams equal to solo runs, and speculation must resume after."""

    def pressured_requests(self, tokenizer):
        return recall_requests(tokenizer, "sliding", n=6, max_new_tokens=24)

    def tight_pool(self, model, tokenizer, requests) -> int:
        """Two prompts + one spare block: co-resident sessions must fight
        over growth blocks and the loser is preempted mid-generation."""
        pool = SpeContextServer(model, spec_config(tokenizer, 0)).pool
        prompt_blocks = max(
            pool.blocks_for_tokens(r.prompt_len) for r in requests
        )
        return 2 * prompt_blocks + 1

    @pytest.mark.parametrize("preempt_mode", ("swap", "recompute"))
    def test_preempted_speculating_session_streams_exact(
        self, tiny_gqa_model, tiny_tokenizer, preempt_mode
    ):
        requests = self.pressured_requests(tiny_tokenizer)
        solo = solo_token_streams(
            tiny_gqa_model, spec_config(tiny_tokenizer, 4), requests, clone
        )
        # A pool this small forces mid-generation preemption; speculation
        # must neither dodge it (reservations are opportunistic) nor
        # corrupt the swapped/recomputed session.
        config = spec_config(
            tiny_tokenizer, 4,
            pool_blocks=self.tight_pool(tiny_gqa_model, tiny_tokenizer, requests),
            preempt_mode=preempt_mode,
        )
        outputs, server = run_server(tiny_gqa_model, config, requests)
        assert len(server.preemption_log) > 0
        assert server.spec_stats.spec_steps > 0
        assert server.spec_stats.accepted > 0
        assert [o.token_ids for o in outputs] == solo
        # Preemption forces swaps of decode-phase sessions, i.e. sessions
        # that had already run speculative steps.
        assert any(o.stats.preemptions > 0 for o in outputs)

    @pytest.mark.parametrize("preempt_mode", ("swap", "recompute"))
    def test_preemption_schedule_matches_nonspec_run(
        self, tiny_gqa_model, tiny_tokenizer, preempt_mode
    ):
        """With drafts that never fit (zero free blocks at verify time),
        spec runs degrade to the reference schedule exactly."""
        requests = self.pressured_requests(tiny_tokenizer)
        config = dict(
            pool_blocks=self.tight_pool(tiny_gqa_model, tiny_tokenizer, requests),
            preempt_mode=preempt_mode,
        )
        ref = run_server(
            tiny_gqa_model, spec_config(tiny_tokenizer, 0, **config), requests
        )
        spec = run_server(
            tiny_gqa_model, spec_config(tiny_tokenizer, 4, **config), requests
        )
        # Streams are always identical; the preemption *schedule* may only
        # shift through transient reservation occupancy, never the victims'
        # outputs.
        assert [o.token_ids for o in spec[0]] == [o.token_ids for o in ref[0]]
        assert [o.finish_reason for o in spec[0]] == [
            o.finish_reason for o in ref[0]
        ]
        assert spec[1].meter.generated_tokens == ref[1].meter.generated_tokens


# ---- acceptance-rule property (scripted draft oracle) ------------------------


class OracleDraft:
    """Scripted draft model with known accuracy.

    Proposes the true continuation for the first ``j`` positions of every
    draft and a provably-wrong token after, which makes the expected
    accept length of every verify step computable in closed form.
    """

    def __init__(self, prompt_len: int, reference: list[int], j: int, vocab: int):
        self.prompt_len = prompt_len
        self.reference = reference
        self.j = j
        self.vocab = vocab
        self.calls: list[tuple[int, int]] = []  # (committed_so_far, k)

    def draft(self, context_ids, k: int) -> list[int]:
        c = len(context_ids) - self.prompt_len
        self.calls.append((c, k))
        out = []
        for t in range(k):
            true = int(self.reference[c + t])
            out.append(true if t < self.j else (true + 1) % self.vocab)
        return out


def simulate_acceptance(n_tokens: int, spec_k: int, j: int):
    """Independent model of the commit rule for an OracleDraft run.

    Under ``sparse_from_first_token`` (the default) even the first
    generated token comes from a real decode forward, so speculation
    starts at step 0. Each eligible step drafts ``min(spec_k,
    remaining - 1)`` tokens, accepts the matching prefix (``min(j, k)``
    long, capped by max_new_tokens) and always commits the one
    bonus/verifier token on top.
    """
    committed, spec_steps, drafted, accepted = 0, 0, 0, 0
    while committed < n_tokens:
        k = min(spec_k, n_tokens - committed - 1)
        if k < 1:
            committed += 1  # plain decode step
            continue
        matches = min(j, k)
        m = 1
        while m <= k and (m - 1) < matches and committed + m < n_tokens:
            m += 1
        spec_steps += 1
        drafted += k
        accepted += m - 1
        committed += m
    return spec_steps, drafted, accepted


class TestAcceptanceRuleProperties:
    @given(
        spec_k=st.integers(min_value=1, max_value=4),
        j=st.integers(min_value=0, max_value=4),
        max_new=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_accepted_prefix_is_longest_greedy_match(
        self, tiny_gqa_model, tiny_tokenizer, spec_k, j, max_new
    ):
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(42), n_filler=80
        )
        request = GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new),
            policy="sliding",
            budget=48,
        )
        [ref_output], ref_server = run_server(
            tiny_gqa_model,
            spec_config(tiny_tokenizer, 0, pool_blocks=128),
            [request],
        )
        reference = list(ref_output.token_ids)
        assert len(reference) == max_new  # greedy, no stop ids

        oracle = OracleDraft(
            len(prompt), reference, j, tiny_tokenizer.vocab_size
        )
        server = SpeContextServer(
            tiny_gqa_model,
            spec_config(tiny_tokenizer, spec_k, pool_blocks=128),
            draft_model=oracle,
        )
        server.add_request(clone(request))
        [output] = server.run()

        assert output.token_ids == reference
        # Single session: rejected reservations restore the free stack in
        # the exact order, so final physical state matches the reference.
        assert free_order(server.pool) == free_order(ref_server.pool)
        expected = simulate_acceptance(max_new, spec_k, j)
        got = (
            server.spec_stats.spec_steps,
            server.spec_stats.drafted,
            server.spec_stats.accepted,
        )
        assert got == expected
        # Full acceptance => the step committed k drafts + exactly one
        # bonus token; the oracle's call log pins the stride.
        if j >= spec_k and max_new >= spec_k + 2:
            first_c, first_k = oracle.calls[0]
            assert first_c == 0
            if len(oracle.calls) > 1:
                # Full acceptance advanced by k drafts + exactly 1 bonus.
                assert oracle.calls[1][0] - first_c == first_k + 1

    def test_acceptance_rate_bounds(self, tiny_gqa_model, tiny_tokenizer):
        """With the real distilled draft: rates land in [0, 1] and the
        stats identity accepted <= drafted holds."""
        requests = recall_requests(tiny_tokenizer, "sliding", n=3)
        _, server = run_server(
            tiny_gqa_model, spec_config(tiny_tokenizer, 4), requests
        )
        stats = server.spec_stats
        assert stats.spec_steps > 0
        assert 0 <= stats.accepted <= stats.drafted
        assert 0.0 <= stats.acceptance_rate <= 1.0
        assert stats.tokens_per_spec_step >= 1.0


# ---- pool reservation properties ---------------------------------------------


class TestPoolSpecReservations:
    @given(
        capacity=st.integers(min_value=1, max_value=24),
        pre_alloc=st.integers(min_value=0, max_value=8),
        n_reserve=st.integers(min_value=0, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_release_restores_free_stack_exactly(
        self, capacity, pre_alloc, n_reserve
    ):
        pool = PagedKVPool(capacity, block_size=4)
        table = BlockTable()
        for _ in range(min(pre_alloc, capacity)):
            table.block_ids.append(pool.allocate())
        before_free = free_order(pool)
        before_ledger = (pool.stats.allocated, pool.stats.freed)

        taken = pool.reserve_spec(n_reserve)
        assert len(taken) == min(n_reserve, len(before_free))
        assert all(pool.ref_count(b) == 1 for b in taken)

        pool.release_spec(taken)
        assert free_order(pool) == before_free  # order included
        assert (pool.stats.allocated, pool.stats.freed) == before_ledger
        assert pool.stats.spec_reserved == pool.stats.spec_released == len(taken)
        pool.audit(allow_spec_outstanding=True)

    @given(
        capacity=st.integers(min_value=2, max_value=24),
        n_reserve=st.integers(min_value=1, max_value=24),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_promotions_count_as_ordinary_allocations(
        self, capacity, n_reserve, data
    ):
        pool = PagedKVPool(capacity, block_size=4)
        table = BlockTable()
        table.block_ids.append(pool.allocate())

        taken = pool.reserve_spec(n_reserve)
        n_promote = data.draw(
            st.integers(min_value=0, max_value=len(taken)), label="n_promote"
        )
        pool.promote_spec(table, taken[:n_promote])
        pool.release_spec(taken[n_promote:])
        assert pool.stats.allocated == 1 + n_promote
        assert pool.stats.spec_promoted == n_promote
        assert len(table) == 1 + n_promote
        pool.audit(allow_spec_outstanding=True)

        pool.free_table(table)
        assert pool.stats.freed == 1 + n_promote
        assert pool.n_used == 0  # nothing published, so nothing retained
        pool.audit(allow_spec_outstanding=True)

    def test_reserve_never_evicts_prefix_blocks(self):
        """reserve_spec is opportunistic: a pool whose free stack is empty
        but whose prefix cache is full yields zero blocks, not evictions."""
        from tests.test_paged_pool import payload_of

        pool = PagedKVPool(4, block_size=4)
        table = BlockTable()
        token_ids = np.arange(16)
        for i in range(4):
            table.block_ids.append(pool.allocate())
            pool.write_block(table, i, payload_of(float(i)))
        pool.publish_prefix(token_ids, table, 4)
        pool.free_table(table)  # blocks retained as evictable prefix cache
        assert pool.n_free == 0
        assert pool.n_evictable() == 4
        assert pool.reserve_spec(3) == []
        assert pool.stats.prefix_evictions == 0
        pool.audit(allow_spec_outstanding=True)

    def test_double_release_and_foreign_promote_rejected(self):
        pool = PagedKVPool(4, block_size=4)
        taken = pool.reserve_spec(2)
        pool.release_spec(taken)
        with pytest.raises(ValueError, match="not a live spec reservation"):
            pool.release_spec(taken)
        table = BlockTable()
        with pytest.raises(ValueError, match="not a live spec reservation"):
            pool.promote_spec(table, [taken[0]])
        with pytest.raises(ValueError, match="non-negative"):
            pool.reserve_spec(-1)


# ---- executors ---------------------------------------------------------------


def executor_requests(tokenizer, max_new=6):
    """One request per policy, recall prompts so drafts sometimes land."""
    requests = []
    for i, name in enumerate(ALL_NAMES):
        prompt, _, _ = make_recall_prompt(
            tokenizer, np.random.default_rng(900 + i), n_filler=60
        )
        requests.append(GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new),
            policy=name,
            budget=48,
        ))
    return requests


class TestExecutorSpecBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self, tiny_gqa_model, tiny_tokenizer):
        """Ground truth: same trace, speculation off, one inproc worker."""
        requests = executor_requests(tiny_tokenizer)
        with InProcessExecutor(
            tiny_gqa_model,
            spec_config(tiny_tokenizer, 0),
            ClusterConfig(n_replicas=1, router="round_robin"),
        ) as executor:
            streams, reasons, _ = run_trace(executor, requests)
        return requests, streams, reasons

    @pytest.mark.parametrize("n_workers", (1, 2, 4))
    def test_inproc_and_multiproc_match_nonspec(
        self, tiny_gqa_model, tiny_tokenizer, reference, n_workers
    ):
        requests, ref_streams, ref_reasons = reference
        config = spec_config(tiny_tokenizer, 2)
        cluster = ClusterConfig(n_replicas=n_workers, router="round_robin")
        spec = {}
        for kind in (InProcessExecutor, MultiprocExecutor):
            with kind(tiny_gqa_model, config, cluster) as executor:
                streams, reasons, _ = run_trace(executor, requests)
                spec[kind.kind] = {
                    i: (s.spec_stats.spec_steps, s.spec_stats.drafted,
                        s.spec_stats.accepted)
                    for i, s in executor.snapshots().items()
                }
            assert streams == ref_streams, kind.kind
            assert reasons == ref_reasons, kind.kind
        # Acceptance telemetry crosses the pipe with the worker snapshot.
        assert spec["multiproc"] == spec["inproc"]
        assert sum(steps for steps, _, _ in spec["inproc"].values()) > 0

    def test_kill_worker_mid_trace_with_speculation(
        self, tiny_gqa_model, tiny_tokenizer, reference
    ):
        """Failover replays a speculating session on a survivor; merged
        client streams stay exactly-once and bit-identical."""
        requests, ref_streams, ref_reasons = reference
        config = spec_config(tiny_tokenizer, 2)
        cluster = ClusterConfig(n_replicas=2, router="round_robin")
        with MultiprocExecutor(tiny_gqa_model, config, cluster) as executor:
            streams, reasons, _ = run_trace(executor, requests, kill=(2, 0))
        assert streams == ref_streams
        assert reasons == ref_reasons


# ---- HTTP frontend -----------------------------------------------------------


class TestHttpSpec:
    def test_sse_matches_body_matches_direct_server(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(77), n_filler=60
        )
        prompt = [int(t) for t in prompt]
        max_new = 8

        [direct_output], direct_server = run_server(
            tiny_gqa_model,
            spec_config(tiny_tokenizer, 2),
            [GenerationRequest(
                np.asarray(prompt, dtype=np.int64),
                sampling=SamplingParams(max_new_tokens=max_new),
            )],
        )
        assert direct_server.spec_stats.spec_steps > 0

        async def scenario_with_sse():
            # request_json JSON-decodes; the SSE stream needs raw bytes.
            import json as _json

            from tests.test_http_frontend import http_payload, raw_request

            executor = InProcessExecutor(
                tiny_gqa_model,
                spec_config(tiny_tokenizer, 2),
                ClusterConfig(n_replicas=1, router="round_robin"),
            )
            server = HttpServer(AsyncEngine(executor), tiny_tokenizer)
            await server.start("127.0.0.1", 0)
            try:
                port = server.addresses[0][1]
                status, body = await request_json(
                    port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": max_new},
                )
                assert status == 200
                payload = _json.dumps(
                    {"prompt": prompt, "max_tokens": max_new, "stream": True}
                ).encode()
                response = await raw_request(
                    port, http_payload("POST", "/v1/completions", payload)
                )
                _, _, sse_body = response.partition(b"\r\n\r\n")
                return body, sse_chunks(sse_body)
            finally:
                await server.stop()
                await server.engine.close()

        body, chunks = asyncio.run(scenario_with_sse())
        assert body["choices"][0]["token_ids"] == list(direct_output.token_ids)
        streamed_tokens = []
        for chunk in chunks:
            if chunk is None:
                continue
            streamed_tokens.extend(chunk["choices"][0]["token_ids"])
        assert streamed_tokens == list(direct_output.token_ids)
        assert chunks[-1] is None  # [DONE] terminator


# ---- draft model token_map units ---------------------------------------------


class TestDraftModelTokenMap:
    @pytest.fixture(scope="class")
    def content_map(self, tiny_tokenizer):
        """token_map covering specials + content words, excluding filler."""
        n = tiny_tokenizer.n_content
        return np.concatenate([
            np.arange(8),
            np.array([tiny_tokenizer.content_id(i) for i in range(n)]),
        ])

    def test_out_of_map_context_token_rejects_not_raises(
        self, tiny_gqa_model, tiny_tokenizer, content_map
    ):
        draft = DraftModel.from_teacher(tiny_gqa_model, token_map=content_map)
        filler = tiny_tokenizer.filler_id(0)
        assert not draft.knows(filler)
        context = np.array([tiny_tokenizer.bos_id, filler])
        assert draft.greedy_next(context) is None
        assert draft.draft(context, 4) == []  # rejection, never KeyError

    def test_draft_stops_at_unmapped_proposal(
        self, tiny_gqa_model, tiny_tokenizer, content_map
    ):
        """Proposals are always in-map by construction (readout is over
        token_map rows), so the draft only halts on unmapped *inputs*."""
        draft = DraftModel.from_teacher(tiny_gqa_model, token_map=content_map)
        rng = np.random.default_rng(3)
        ids = [int(t) for t in tiny_tokenizer.random_content_ids(rng, 12)]
        out = draft.draft(np.array([tiny_tokenizer.bos_id] + ids), 4)
        assert len(out) <= 4
        assert all(draft.knows(t) for t in out)

    def test_knows_bounds(self, tiny_gqa_model, content_map):
        draft = DraftModel.from_teacher(tiny_gqa_model, token_map=content_map)
        assert not draft.knows(-1)
        assert not draft.knows(draft.vocab_size)
        assert draft.knows(int(content_map[0]))

    def test_token_map_validation(self, tiny_gqa_model):
        vocab = tiny_gqa_model.config.vocab_size
        with pytest.raises(ValueError, match="non-empty 1-D"):
            DraftModel.from_teacher(tiny_gqa_model, token_map=np.array([]))
        with pytest.raises(ValueError, match="unique"):
            DraftModel.from_teacher(tiny_gqa_model, token_map=np.array([3, 3]))
        with pytest.raises(ValueError, match="outside target vocabulary"):
            DraftModel.from_teacher(
                tiny_gqa_model, token_map=np.array([0, vocab])
            )

    def test_draft_k_edge_cases(self, tiny_gqa_model, tiny_tokenizer):
        draft = DraftModel.from_teacher(tiny_gqa_model)
        context = np.array([tiny_tokenizer.bos_id, tiny_tokenizer.content_id(0)])
        assert draft.draft(context, 0) == []
        assert draft.draft(np.array([tiny_tokenizer.bos_id]), 4) == []
        with pytest.raises(ValueError, match="non-negative"):
            draft.draft(context, -1)

    def test_from_trainer_uses_learned_mixers(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        dataset = DistillationDataset(tiny_tokenizer, seq_len=64, seed=9)
        trainer = DistillationTrainer(tiny_gqa_model, dataset, seed=9)
        draft = DraftModel.from_trainer(trainer)
        assert draft.content.shape == trainer.content.shape
        assert np.shares_memory(draft.G, trainer.params["G"]) or np.array_equal(
            draft.G, trainer.params["G"]
        )
        context = np.array(
            [tiny_tokenizer.bos_id]
            + [int(t) for t in tiny_tokenizer.random_content_ids(
                np.random.default_rng(4), 8
            )]
        )
        proposal = draft.draft(context, 3)
        assert all(0 <= t < draft.vocab_size for t in proposal)

    def test_truncated_draft_server_still_bit_identical(
        self, tiny_gqa_model, tiny_tokenizer, content_map
    ):
        """A draft that cannot see filler tokens skips those steps but
        never changes the committed stream."""
        requests = recall_requests(tiny_tokenizer, "sliding", n=3)
        ref = run_server(tiny_gqa_model, spec_config(tiny_tokenizer, 0), requests)
        truncated = DraftModel.from_teacher(
            tiny_gqa_model, token_map=content_map
        )
        server = SpeContextServer(
            tiny_gqa_model, spec_config(tiny_tokenizer, 2), draft_model=truncated
        )
        for request in requests:
            server.add_request(clone(request))
        outputs = server.run()
        assert_spec_matches_reference((outputs, server), ref)
