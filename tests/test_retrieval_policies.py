"""Tests for the layer-wise KV-selection baselines (Quest, ClusterKV,
ShadowKV, StreamingLLM, H2O, sliding window, full attention)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest
from repro.retrieval.clusterkv import ClusterKVPolicy
from repro.retrieval.full import FullAttentionPolicy
from repro.retrieval.h2o import H2OPolicy
from repro.retrieval.quest import QuestPolicy
from repro.retrieval.registry import POLICIES
from repro.retrieval.shadowkv import ShadowKVPolicy
from repro.retrieval.sliding import SlidingWindowPolicy
from repro.retrieval.streaming import StreamingLLMPolicy
from repro.serving.server import SpeContextServer
from tests.conftest import make_recall_prompt

warnings.filterwarnings("ignore", message="One of the clusters is empty")

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

BUDGETED = (QuestPolicy, ClusterKVPolicy, ShadowKVPolicy, H2OPolicy)


def run_generation(model, prompt, policy, n_tokens=3):
    return model.generate(
        np.asarray(prompt), n_tokens, policy=policy, sparse_from_first_token=True
    )


class TestLifecycle:
    @pytest.mark.parametrize("cls", BUDGETED)
    def test_budget_must_be_positive(self, cls, tiny_gqa_model):
        with pytest.raises(ValueError):
            cls(tiny_gqa_model, budget=0)

    @pytest.mark.parametrize("cls", BUDGETED)
    def test_short_prompt_is_full_attention(self, cls, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(1)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=40)
        policy = cls(tiny_gqa_model, budget=4096)
        result = run_generation(tiny_gqa_model, prompt, policy)
        assert all(not sels for sels in result.selections)

    @pytest.mark.parametrize("cls", BUDGETED)
    def test_long_prompt_selects_within_budget(
        self, cls, tiny_gqa_model, tiny_tokenizer
    ):
        rng = np.random.default_rng(2)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        budget = 64
        policy = cls(tiny_gqa_model, budget=budget)
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=3)
        prompt_len = prompt.size - 1
        # Quest rounds to whole pages and always keeps the partial tail
        # page, so its per-head count may exceed the budget by one page.
        slack = 1 + (policy.page_size if isinstance(policy, QuestPolicy) else 0)
        for step, sels in enumerate(result.selections):
            assert sels, "long prompt must trigger selection"
            for selection in sels.values():
                prompt_part = selection[selection < prompt_len]
                if selection.ndim == 2:
                    per_head = [
                        row[row < prompt_len].size for row in selection
                    ]
                    assert max(per_head) <= budget + slack
                else:
                    assert prompt_part.size <= budget + slack

    @pytest.mark.parametrize("cls", BUDGETED)
    def test_generated_tokens_always_retained(
        self, cls, tiny_gqa_model, tiny_tokenizer
    ):
        """Challenge 2: baselines retain every decode-phase KV pair."""
        rng = np.random.default_rng(3)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        policy = cls(tiny_gqa_model, budget=32)
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=4)
        prompt_len = prompt.size - 1
        last_step = result.selections[-1]
        for selection in last_step.values():
            flat = np.unique(selection)
            generated = flat[flat >= prompt_len]
            # Steps 0..3 appended 4 tokens; by the final step at least the
            # previously generated positions are present.
            assert generated.size >= 3


class TestAccuracy:
    @pytest.mark.parametrize("cls", BUDGETED)
    def test_budgeted_policy_solves_recall_with_adequate_budget(
        self, cls, tiny_gqa_model, tiny_tokenizer
    ):
        rng = np.random.default_rng(4)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        policy = cls(tiny_gqa_model, budget=128)
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=1)
        assert result.token_ids[0] == expected

    def test_sliding_window_forgets_early_evidence(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A window smaller than the evidence distance loses the answer."""
        rng = np.random.default_rng(5)
        prompt, expected, value_pos = make_recall_prompt(
            tiny_tokenizer, rng, n_filler=300, query_pair=0
        )
        # Ensure the evidence is far from the prompt end.
        if prompt.size - value_pos < 100:
            pytest.skip("evidence landed too close to the query")
        policy = SlidingWindowPolicy(budget=32)
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=1)
        assert result.token_ids[0] != expected

    def test_streaming_keeps_sinks(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(6)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        policy = StreamingLLMPolicy(budget=32, n_sinks=4)
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=2)
        for sels in result.selections:
            for selection in sels.values():
                assert set(range(4)) <= set(np.unique(selection).tolist())

    def test_full_attention_policy_is_noop(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(7)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=200)
        policy = FullAttentionPolicy()
        result = run_generation(tiny_gqa_model, prompt, policy, n_tokens=1)
        assert result.token_ids[0] == expected
        assert all(not sels for sels in result.selections)


class TestMLASupport:
    @pytest.mark.parametrize("cls", BUDGETED)
    def test_k_cache_policies_reject_mla(self, cls, tiny_mla_model):
        """The paper's 'None Support' cells: baselines need a K cache."""
        with pytest.raises(NotImplementedError):
            cls(tiny_mla_model, budget=64)


class TestSpecProtocol:
    """``spec_begin``/``spec_commit`` is what makes a policy speculable:
    the server drafts for every greedy session, so every registered
    policy defines both."""

    def test_every_registered_policy_speaks_the_protocol(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(
            tiny_gqa_model, EngineConfig(bos_id=tiny_tokenizer.bos_id)
        )
        prompt = np.array([tiny_tokenizer.bos_id, 5, 6, 7])
        for name in POLICIES.available():
            policy = server._resolve_policy(
                GenerationRequest(prompt, policy=name), budget=64
            )
            assert callable(getattr(policy, "spec_begin", None)), name
            assert callable(getattr(policy, "spec_commit", None)), name

    @pytest.mark.parametrize("cls", BUDGETED)
    def test_commit_requires_begin_and_the_verified_row(self, cls, tiny_gqa_model):
        policy = cls(tiny_gqa_model, budget=64)
        with pytest.raises(RuntimeError, match="without spec_begin"):
            policy.spec_commit(1)
        policy.spec_begin()
        with pytest.raises(ValueError, match="verified row 0"):
            policy.spec_commit(0)

    def test_h2o_rollback_matches_sequential(self, tiny_gqa_model, tiny_tokenizer):
        """Committing m of a k-position draft leaves H2O's accumulated
        attention bit-identical to decoding the m positions sequentially."""
        model = tiny_gqa_model
        rng = np.random.default_rng(9)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        cache = model.new_cache()
        model.prefill(np.asarray(prompt), cache)
        hidden = rng.standard_normal((3, model.config.d_model))
        base = cache.seq_len

        def run(policy, n_positions):
            policy.begin_generation(np.asarray(prompt), cache)
            # Layer-major, ascending position: the order fused verify uses.
            for layer, layer_cache in enumerate(cache.layers):
                for t in range(n_positions):
                    policy.select(layer, hidden[t], base + t, layer_cache)
            return policy

        sequential = run(H2OPolicy(model, budget=64), 2)
        overrun = run(H2OPolicy(model, budget=64), 3)
        speculative = H2OPolicy(model, budget=64)
        speculative.begin_generation(np.asarray(prompt), cache)
        speculative.spec_begin()
        for layer, layer_cache in enumerate(cache.layers):
            for t in range(3):
                speculative.select(layer, hidden[t], base + t, layer_cache)
        speculative.spec_commit(2)
        for layer in range(model.config.n_layers):
            assert np.array_equal(
                speculative._accumulated[layer], sequential._accumulated[layer]
            )
            # The rejected third position did move the accumulator.
            assert not np.array_equal(
                overrun._accumulated[layer], sequential._accumulated[layer]
            )


class TestScipyIsLazy:
    def test_serving_path_never_imports_scipy(self):
        """Only ClusterKV's clustering needs scipy; serving must not pay for it."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            import repro
            from repro import EngineConfig, GenerationRequest, SpeContextServer
            from repro.models import (
                SyntheticTokenizer, TransformerLM, build_recall_model,
                tiny_test_config,
            )

            tokenizer = SyntheticTokenizer(512)
            model = TransformerLM(build_recall_model(
                tiny_test_config(), tokenizer, np.random.default_rng(0)
            ))
            server = SpeContextServer(
                model,
                EngineConfig(policy="specontext", budget=32,
                             bos_id=tokenizer.bos_id),
            )
            server.add_request(GenerationRequest(np.arange(1, 80)))
            server.step()
            assert "scipy" not in sys.modules, "the serving path imported scipy"
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
