"""Tests for the request-level serving API: policy registry round-trips,
continuous-batching server determinism, and one-request generation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.api.errors import InvalidPromptError, RequestValidationError
from repro.core.retrieval_head import (
    LightweightRetrievalHead,
    RetrievalHeadConfig,
    SpeContextPolicy,
)
from repro.distill.dlm import full_dlm_analog
from repro.hardware.spec import EDGE_RTX4060_4GB
from repro.retrieval.registry import (
    available_policies,
    make_policy,
    resolve_policy_name,
)
from repro.serving.server import SpeContextServer
from tests.conftest import make_recall_prompt
from tests.test_core_retrieval_head import assert_view_contract

warnings.filterwarnings("ignore", message="One of the clusters is empty")

ALL_NAMES = (
    "specontext", "quest", "h2o", "shadowkv", "clusterkv",
    "streaming", "sliding", "full",
)
K_CACHE_NAMES = ("quest", "h2o", "shadowkv", "clusterkv")
CACHE_AGNOSTIC_NAMES = ("specontext", "streaming", "sliding", "full")


def server_config(tokenizer, **overrides) -> EngineConfig:
    defaults = dict(
        budget=96,
        spec=EDGE_RTX4060_4GB,
        bos_id=tokenizer.bos_id,
        head_config=RetrievalHeadConfig(noise=0.1),
        max_concurrency=4,
        seed=0,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def build_head(model, config: EngineConfig) -> LightweightRetrievalHead:
    """The head a server with ``config`` builds, constructed independently."""
    return LightweightRetrievalHead.from_teacher(
        model.weights,
        config.bos_id,
        np.random.default_rng(config.seed),
        config=config.head_config,
    )


def registry_opts(name, model, tokenizer) -> dict:
    if name != "specontext":
        return {}
    return {"head": build_head(model, server_config(tokenizer))}


def mixed_requests(tokenizer, n=8, max_new_tokens=3):
    """One request per policy name, alternating budgets."""
    requests = []
    for i in range(n):
        rng = np.random.default_rng(100 + i)
        prompt, _, _ = make_recall_prompt(tokenizer, rng, n_filler=300)
        requests.append(GenerationRequest(
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            policy=ALL_NAMES[i % len(ALL_NAMES)],
            budget=64 if i % 2 else 96,
        ))
    return requests


def clone(request: GenerationRequest) -> GenerationRequest:
    return GenerationRequest(
        request.prompt_ids.copy(),
        sampling=request.sampling,
        policy=request.policy,
        budget=request.budget,
    )


class TestRegistry:
    def test_canonical_names_complete(self):
        assert set(available_policies()) == set(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip_builds_working_policy(
        self, name, tiny_gqa_model, tiny_tokenizer
    ):
        opts = registry_opts(name, tiny_gqa_model, tiny_tokenizer)
        policy = make_policy(name, tiny_gqa_model, 64, **opts)
        assert hasattr(policy, "begin_generation")
        assert hasattr(policy, "pre_step")
        assert hasattr(policy, "select")
        rng = np.random.default_rng(0)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=200)
        result = tiny_gqa_model.generate(
            prompt, 2, policy=policy, sparse_from_first_token=True
        )
        assert result.n_generated == 2

    @pytest.mark.parametrize("alias,canonical", [
        ("Ours", "specontext"),
        ("SPECONTEXT", "specontext"),
        ("StreamingLLM", "streaming"),
        ("SlidingWindow", "sliding"),
        ("full-attention", "full"),
        ("Quest", "quest"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_policy_name(alias) == canonical

    def test_unknown_name_raises_with_available_list(self, tiny_gqa_model):
        with pytest.raises(KeyError, match="specontext"):
            make_policy("does-not-exist", tiny_gqa_model, 64)

    @pytest.mark.parametrize("name", K_CACHE_NAMES)
    def test_mla_rejects_k_cache_policies(self, name, tiny_mla_model):
        """The paper's 'None Support' cells, via the registry."""
        with pytest.raises(NotImplementedError):
            make_policy(name, tiny_mla_model, 64)

    @pytest.mark.parametrize("name", CACHE_AGNOSTIC_NAMES)
    def test_mla_supported_policies_construct(
        self, name, tiny_mla_model, tiny_tokenizer
    ):
        opts = registry_opts(name, tiny_mla_model, tiny_tokenizer)
        make_policy(name, tiny_mla_model, 64, **opts)

    def test_specontext_needs_a_head(self, tiny_gqa_model):
        with pytest.raises(TypeError, match="head"):
            make_policy("specontext", tiny_gqa_model, 64)
        for removed in ("rng", "seed", "bos_id", "head_config"):
            with pytest.raises(TypeError):
                make_policy("specontext", tiny_gqa_model, 64, **{removed: 0})

    def test_specontext_policies_are_views_of_one_head(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        head = build_head(tiny_gqa_model, server_config(tiny_tokenizer))
        first = make_policy("specontext", tiny_gqa_model, 64, head=head)
        second = make_policy("specontext", tiny_gqa_model, 64, head=head)
        assert first.head is not second.head and first.head is not head
        assert np.shares_memory(first.head.wq, head.wq)
        first.head.observe([1, 2, 3])
        assert (len(first.head), len(second.head), len(head)) == (3, 0, 0)

    def test_opts_forwarded(self, tiny_gqa_model):
        policy = make_policy("quest", tiny_gqa_model, 64, page_size=8)
        assert policy.page_size == 8


class TestServer:
    def test_eight_concurrent_mixed_policies(self, tiny_gqa_model, tiny_tokenizer):
        """Acceptance: >= 8 concurrent requests, mixed policies/budgets."""
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        requests = mixed_requests(tiny_tokenizer)
        for request in requests:
            server.add_request(request)
        outputs = server.run()
        assert len(outputs) == 8
        assert [o.request_id for o in outputs] == list(range(8))
        for output in outputs:
            assert output.n_generated == 3
            assert output.finish_reason == "length"
            stats = output.stats
            assert stats.budget in (64, 96)
            assert 0.0 <= stats.mean_selection_overlap <= 1.0
        assert len(server.meter.finished) == 8
        assert server.meter.generated_tokens == 24

    def test_batched_matches_single_request_runs(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Acceptance: meter totals == sum of solo runs under the same seed."""
        batched = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        requests = mixed_requests(tiny_tokenizer)
        for request in requests:
            batched.add_request(clone(request))
        batched_outputs = batched.run()

        solo_tokens, solo_generated = [], 0
        for request in requests:
            solo = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
            solo.add_request(clone(request))
            output = solo.run()[0]
            solo_tokens.append(output.token_ids)
            solo_generated += solo.meter.generated_tokens
        assert [o.token_ids for o in batched_outputs] == solo_tokens
        assert batched.meter.generated_tokens == solo_generated

    def test_deterministic_under_fixed_seed(self, tiny_gqa_model, tiny_tokenizer):
        def run_once():
            server = SpeContextServer(
                tiny_gqa_model, server_config(tiny_tokenizer)
            )
            for request in mixed_requests(tiny_tokenizer):
                server.add_request(request)
            return [
                (o.request_id, tuple(o.token_ids), o.stats.bytes_transferred)
                for o in server.run()
            ]

        assert run_once() == run_once()

    def test_temperature_sampling_deterministic_with_seed(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        rng = np.random.default_rng(7)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=200)
        sampling = SamplingParams(max_new_tokens=4, temperature=0.8, seed=3)

        def run_once():
            server = SpeContextServer(
                tiny_gqa_model, server_config(tiny_tokenizer)
            )
            server.add_request(GenerationRequest(prompt, sampling, policy="full"))
            return server.run()[0].token_ids

        assert run_once() == run_once()

    @pytest.mark.parametrize(
        "temperature, top_p", [(0.0, 1.0), (0.8, 1e-9)],
        ids=["temperature-zero", "nucleus-of-one"],
    )
    def test_degenerate_sampling_is_greedy(
        self, temperature, top_p, tiny_gqa_model, tiny_tokenizer
    ):
        """A zero temperature takes the argmax; a nucleus that keeps one
        token samples it with probability 1. Either way the seeded stream
        is the greedy one."""
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(7), n_filler=200
        )

        def run_once(sampling):
            server = SpeContextServer(
                tiny_gqa_model, server_config(tiny_tokenizer)
            )
            server.add_request(GenerationRequest(prompt, sampling, policy="full"))
            return server.run()[0].token_ids

        sampled = run_once(SamplingParams(
            max_new_tokens=6, temperature=temperature, top_p=top_p, seed=3
        ))
        assert sampled == run_once(SamplingParams(max_new_tokens=6))

    def test_temperature_without_seed_rejected(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        rng = np.random.default_rng(7)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=100)
        with pytest.raises(ValueError, match="temperature"):
            server.add_request(GenerationRequest(
                prompt, SamplingParams(max_new_tokens=2, temperature=0.5)
            ))

    @pytest.mark.parametrize(
        "bad_ids",
        [
            np.array([1, 40, -1, 41]),
            np.array([1, 40, 512, 41]),  # == vocab_size
            np.array([1.0, 40.0, 41.0]),
        ],
        ids=["negative", "vocab-size", "float"],
    )
    def test_invalid_prompt_ids_rejected(
        self, bad_ids, tiny_gqa_model, tiny_tokenizer
    ):
        """An id the embedding cannot look up is rejected at submission
        with the server untouched, and a valid peer still finishes."""
        assert tiny_gqa_model.config.vocab_size == 512
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        rng = np.random.default_rng(8)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=100)
        peer = server.add_request(
            GenerationRequest(prompt, SamplingParams(max_new_tokens=2))
        )
        bad = GenerationRequest(bad_ids, SamplingParams(max_new_tokens=2))
        with pytest.raises(InvalidPromptError) as err:
            server.add_request(bad)
        assert err.value.code == "invalid_prompt"
        assert bad.request_id is None
        assert server.n_waiting == 1 and server.n_active == 0
        outputs = server.run()
        assert [o.request_id for o in outputs] == [peer]
        assert outputs[0].n_generated == 2

    def test_concurrency_cap_respected(self, tiny_gqa_model, tiny_tokenizer):
        server = SpeContextServer(
            tiny_gqa_model, server_config(tiny_tokenizer, max_concurrency=2)
        )
        for request in mixed_requests(tiny_tokenizer, n=5, max_new_tokens=4):
            server.add_request(request)
        server.step()
        assert server.n_active == 2
        assert server.n_waiting == 3
        outputs = server.run()
        assert len(outputs) == 5
        assert len(server.outputs) == 5

    def test_stop_ids_finish_early(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(11)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        server.add_request(GenerationRequest(
            prompt,
            SamplingParams(max_new_tokens=8, stop_ids=(expected,)),
            policy="specontext",
        ))
        output = server.run()[0]
        assert output.finish_reason == "stop"
        assert output.token_ids[-1] == expected
        assert output.stats.result.stopped_by_eos

    def test_solves_recall_under_sparsity(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(11)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        server.add_request(GenerationRequest(
            prompt, SamplingParams(max_new_tokens=1), policy="specontext"
        ))
        assert server.run()[0].token_ids[0] == expected

    def test_failed_submission_leaves_request_retryable(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        rng = np.random.default_rng(22)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=100)
        request = GenerationRequest(
            prompt, SamplingParams(max_new_tokens=2), policy="qest"  # typo
        )
        with pytest.raises(KeyError):
            server.add_request(request)
        assert request.request_id is None  # no id burned
        request.policy = "quest"
        assert server.add_request(request) == 0
        assert server.run()[0].n_generated == 2

    def test_one_head_per_server(self, tiny_gqa_model, tiny_tokenizer, monkeypatch):
        """N specontext requests: ``from_teacher`` runs once, every session
        shares the server head's weight arrays (none is allocated by
        ``add_request``) and the memory model is charged that one head —
        the same bytes the per-request analytic formula used to give."""
        builds = []
        original = LightweightRetrievalHead.from_teacher.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            LightweightRetrievalHead, "from_teacher", classmethod(counting)
        )
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(24), n_filler=100
        )
        for _ in range(4):
            server.add_request(GenerationRequest(
                prompt, SamplingParams(max_new_tokens=2), policy="specontext"
            ))
        assert len(builds) == 1
        head = server.head
        views = [session.policy.head for session in server._waiting]
        assert len({id(view) for view in views}) == 4
        for view in views:
            # Only per-session state is the session's own; everything else
            # (weights, RoPE, the position tables) is shared, not copied.
            assert_view_contract(view, head)
            assert view._tables is head._tables
            for name in ("wq", "wk", "content"):
                assert np.shares_memory(getattr(view, name), getattr(head, name))
        assert len(server.run()) == 4 and len(builds) == 1

        cfg = tiny_gqa_model.config
        analytic = 2 * (
            2 * cfg.n_kv_heads * cfg.group_size * cfg.head_dim**2
            + cfg.vocab_size * cfg.head_dim
        )
        assert server.memory_model.dlm_bytes == analytic
        assert analytic == 2 * head.parameter_count(include_shared_embedding=True)

    def test_memory_model_dlm_bytes_follow_the_config(
        self, tiny_gqa_model, tiny_mla_model, tiny_tokenizer
    ):
        def dlm_bytes(model, **overrides):
            config = server_config(tiny_tokenizer, **overrides)
            return SpeContextServer(model, config).memory_model.dlm_bytes

        assert dlm_bytes(tiny_gqa_model, policy="quest") == 0
        assert dlm_bytes(tiny_gqa_model, bos_id=None) == 0
        mla = tiny_mla_model.config  # MLA: one retrieval head per q-head
        assert dlm_bytes(tiny_mla_model) == 2 * (
            2 * mla.n_kv_heads * mla.head_dim**2 + mla.vocab_size * mla.head_dim
        )

    def test_specontext_policy_opts_accept_level_only(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, server_config(tiny_tokenizer))
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(25), n_filler=100
        )
        for opts in (
            {"head": server.head},
            {"head_config": RetrievalHeadConfig()},
            {"bos_id": 0},
            {"rng": np.random.default_rng(0)},
            {"seed": 1},
        ):
            request = GenerationRequest(
                prompt, SamplingParams(max_new_tokens=2),
                policy="specontext", policy_opts=opts,
            )
            with pytest.raises(RequestValidationError, match="level"):
                server.add_request(request)
            assert request.request_id is None and server.n_waiting == 0
        server.add_request(GenerationRequest(
            prompt, SamplingParams(max_new_tokens=2),
            policy="specontext", policy_opts={"level": "batch"},
        ))
        assert server._waiting[0].policy.level == "batch"
        assert server.run()[0].n_generated == 2


class TestServerMatchesModelGenerate:
    """The numeric oracle for the server's one decode path: tokens and
    every step's selections (through the selection digest). The
    reference is the model layer's closed loop — one monolithic prefill
    plus batch=1 ``decode_step`` per token — which shares no serving
    code. ``crowded`` serves the request alongside two longer-running
    neighbours of other policies, so every one of its decode steps runs
    inside a multi-session fused wave."""

    @pytest.mark.parametrize("crowded", [False, True], ids=["alone", "crowded"])
    @pytest.mark.parametrize("chunk", [None, 32])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_stream_equals_generate(
        self, name, chunk, crowded, tiny_gqa_model, tiny_tokenizer
    ):
        config = server_config(tiny_tokenizer, prefill_chunk_tokens=chunk)
        prompt, _, _ = make_recall_prompt(
            tiny_tokenizer, np.random.default_rng(21), n_filler=120
        )
        server = SpeContextServer(tiny_gqa_model, config)
        rid = server.add_request(GenerationRequest(
            prompt, sampling=SamplingParams(max_new_tokens=5), policy=name
        ))
        if crowded:
            for seed, neighbour in ((22, "specontext"), (23, "quest")):
                other, _, _ = make_recall_prompt(
                    tiny_tokenizer, np.random.default_rng(seed), n_filler=100
                )
                server.add_request(GenerationRequest(
                    other, sampling=SamplingParams(max_new_tokens=7),
                    policy=neighbour,
                ))
        [output] = [o for o in server.run() if o.request_id == rid]
        # The server's policy, from a head built without the server.
        opts = {}
        if name == "specontext":
            opts = dict(
                head=build_head(tiny_gqa_model, config),
                level=config.selection_level,
            )
        policy = make_policy(name, tiny_gqa_model, config.budget, **opts)
        direct = tiny_gqa_model.generate(
            prompt, 5, policy=policy, sparse_from_first_token=True
        )
        assert output.token_ids == direct.token_ids
        served = output.stats.result
        assert served.selection_digest == direct.selection_digest
        assert not served.selections and len(direct.selections) == 5


def generate_one(server, prompt, max_new_tokens, **sampling):
    """One ``specontext`` request through ``server``; returns its output."""
    server.add_request(GenerationRequest(
        prompt,
        SamplingParams(max_new_tokens=max_new_tokens, **sampling),
        policy="specontext",
    ))
    [output] = server.run()
    return output


class TestOneRequest:
    """One ``specontext`` request at a time through a server of one slot:
    the paper's single-generation path, tokens plus system accounting."""

    @pytest.fixture
    def server(self, tiny_gqa_model, tiny_tokenizer):
        return SpeContextServer(
            tiny_gqa_model, server_config(tiny_tokenizer, max_concurrency=1)
        )

    def test_solves_recall_under_sparsity(self, server, tiny_tokenizer):
        rng = np.random.default_rng(11)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        output = generate_one(server, prompt, 1)
        assert output.token_ids[0] == expected

    def test_matches_full_attention_tokens(
        self, server, tiny_gqa_model, tiny_tokenizer
    ):
        rng = np.random.default_rng(12)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        sparse = generate_one(server, prompt, 4)
        full = tiny_gqa_model.generate(prompt, 4, sparse_from_first_token=True)
        assert sparse.token_ids == full.token_ids

    def test_matches_model_generate_with_fresh_head_view(
        self, server, tiny_gqa_model, tiny_tokenizer
    ):
        """Server tokens == model.generate under the same sparsity."""
        rng = np.random.default_rng(12)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        output = generate_one(server, prompt, 4)
        fresh_policy = SpeContextPolicy(server.head.view(), 96, level="head")
        direct = tiny_gqa_model.generate(
            prompt, 4, policy=fresh_policy, sparse_from_first_token=True
        )
        assert output.token_ids == direct.token_ids
        assert output.stats.result.token_ids == direct.token_ids
        assert output.stats.budget == server.config.budget == 96

    def test_stop_ids_terminate(self, server, tiny_tokenizer):
        rng = np.random.default_rng(13)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        output = generate_one(server, prompt, 8, stop_ids=(expected,))
        assert output.finish_reason == "stop"
        assert output.stats.result.stopped_by_eos
        assert output.token_ids[-1] == expected

    def test_transfer_accounting_present(self, server, tiny_tokenizer):
        rng = np.random.default_rng(14)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = generate_one(server, prompt, 6).stats
        assert stats.bytes_transferred > 0
        assert 0.0 <= stats.mean_selection_overlap <= 1.0
        assert 0.0 <= stats.transfer_reduction < 1.0

    def test_elastic_reduces_transfer(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(15)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        elastic, naive = (
            SpeContextServer(tiny_gqa_model, server_config(
                tiny_tokenizer, max_concurrency=1, elastic=flag
            ))
            for flag in (True, False)
        )
        a = generate_one(elastic, prompt, 6).stats
        b = generate_one(naive, prompt, 6).stats
        assert a.bytes_transferred < b.bytes_transferred
        # Same tokens either way: elastic loading is performance-only.
        assert a.result.token_ids == b.result.token_ids

    def test_head_is_under_a_tenth_of_the_full_dlm(self, server, tiny_gqa_model):
        dlm = full_dlm_analog(tiny_gqa_model.config)
        assert server.head.parameter_count() < 0.1 * dlm.total_params()

    def test_offload_events_ordered(self, server, tiny_tokenizer):
        rng = np.random.default_rng(16)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = generate_one(server, prompt, 4).stats
        lengths = [e.seq_len for e in stats.offload_events]
        assert lengths == sorted(lengths)

    def test_rejects_request_past_max_position(self, server, tiny_tokenizer):
        """A generation that would decode past the cached RoPE table is
        rejected at submission."""
        rng = np.random.default_rng(14)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=120)
        max_position = server.model.config.max_position
        with pytest.raises(ValueError, match="max_position"):
            generate_one(server, prompt, max_position)

    def test_repeat_requests_are_identical(self, server, tiny_tokenizer):
        """One head serves every request, and because its keys are a
        function of the tokens alone, a repeated request repeats
        everything — transfer bytes included."""
        head_before = server.head
        rng = np.random.default_rng(13)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        first = generate_one(server, prompt, 3).stats
        second = generate_one(server, prompt, 3).stats
        assert server.head is head_before
        assert len(server.head) == 0  # sessions decode on views
        assert first.result.token_ids == second.result.token_ids
        assert first.bytes_transferred == second.bytes_transferred > 0
        assert [e.seq_len for e in first.offload_events] == [
            e.seq_len for e in second.offload_events
        ]

    def test_repeat_request_matches_fresh_server(
        self, server, tiny_gqa_model, tiny_tokenizer
    ):
        """Stats from a reused server == stats from a brand-new server."""
        rng = np.random.default_rng(14)
        prompt_a, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        prompt_b, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        generate_one(server, prompt_a, 3)
        reused = generate_one(server, prompt_b, 3).stats
        fresh = generate_one(
            SpeContextServer(
                tiny_gqa_model, server_config(tiny_tokenizer, max_concurrency=1)
            ),
            prompt_b,
            3,
        ).stats
        assert reused.result.token_ids == fresh.result.token_ids
        assert reused.bytes_transferred == fresh.bytes_transferred
        assert len(reused.offload_events) == len(fresh.offload_events)

    def test_sampled_generation_is_seeded(self, server, tiny_tokenizer):
        rng = np.random.default_rng(15)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=200)
        a = generate_one(server, prompt, 4, temperature=0.8, seed=3)
        b = generate_one(server, prompt, 4, temperature=0.8, seed=3)
        assert a.token_ids == b.token_ids
        with pytest.raises(ValueError, match="requires a seed"):
            generate_one(server, prompt, 4, temperature=0.8)

    def test_specontext_needs_bos_id(self, tiny_gqa_model, tiny_tokenizer):
        server = SpeContextServer(tiny_gqa_model, EngineConfig(max_concurrency=1))
        assert server.head is None
        prompt = np.arange(1, 9)
        with pytest.raises(ValueError, match="bos_id"):
            generate_one(server, prompt, 2)
        server = SpeContextServer(
            tiny_gqa_model, EngineConfig(bos_id=tiny_tokenizer.bos_id)
        )
        assert server.head.bos_id == tiny_tokenizer.bos_id
