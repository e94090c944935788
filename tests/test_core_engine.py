"""Integration tests for SpeContextEngine (the end-to-end functional path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EngineConfig
from repro.core.engine import SpeContextEngine
from repro.core.retrieval_head import RetrievalHeadConfig
from repro.distill.dlm import full_dlm_analog
from repro.hardware.spec import EDGE_RTX4060_4GB
from tests.conftest import make_recall_prompt


def engine_config(tokenizer, **overrides) -> EngineConfig:
    return EngineConfig(
        budget=96,
        spec=EDGE_RTX4060_4GB,
        bos_id=tokenizer.bos_id,
        head_config=RetrievalHeadConfig(noise=0.1),
        max_concurrency=1,
        **overrides,
    )


@pytest.fixture
def engine(tiny_gqa_model, tiny_tokenizer):
    return SpeContextEngine(tiny_gqa_model, engine_config(tiny_tokenizer))


class TestGeneration:
    def test_solves_recall_under_sparsity(self, engine, tiny_tokenizer):
        rng = np.random.default_rng(11)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = engine.generate(prompt, max_new_tokens=1)
        assert stats.text_token_ids[0] == expected

    def test_matches_full_attention_tokens(self, engine, tiny_gqa_model,
                                           tiny_tokenizer):
        rng = np.random.default_rng(12)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        sparse = engine.generate(prompt, max_new_tokens=4)
        full = tiny_gqa_model.generate(
            prompt, 4, sparse_from_first_token=True
        )
        assert sparse.text_token_ids == full.token_ids

    def test_stop_ids_terminate(self, engine, tiny_tokenizer):
        rng = np.random.default_rng(13)
        prompt, expected, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = engine.generate(
            prompt, max_new_tokens=8, stop_ids=(expected,)
        )
        assert stats.result.stopped_by_eos
        assert stats.text_token_ids[-1] == expected


class TestSystemAccounting:
    def test_transfer_accounting_present(self, engine, tiny_tokenizer):
        rng = np.random.default_rng(14)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = engine.generate(prompt, max_new_tokens=6)
        assert stats.bytes_transferred > 0
        assert 0.0 <= stats.mean_selection_overlap <= 1.0
        assert 0.0 <= stats.transfer_reduction < 1.0

    def test_elastic_reduces_transfer(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(15)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        elastic = SpeContextEngine(
            tiny_gqa_model, engine_config(tiny_tokenizer, elastic=True)
        )
        naive = SpeContextEngine(
            tiny_gqa_model, engine_config(tiny_tokenizer, elastic=False)
        )
        a = elastic.generate(prompt, max_new_tokens=6)
        b = naive.generate(prompt, max_new_tokens=6)
        assert a.bytes_transferred < b.bytes_transferred
        # Same tokens either way: elastic loading is performance-only.
        assert a.text_token_ids == b.text_token_ids

    def test_pruning_ratio_exceeds_90(self, engine, tiny_gqa_model):
        dlm = full_dlm_analog(tiny_gqa_model.config)
        assert engine.pruning_ratio(dlm.total_params()) > 0.9

    def test_pruning_ratio_rejects_nonpositive(self, engine):
        with pytest.raises(ValueError):
            engine.pruning_ratio(0)

    def test_offload_events_ordered(self, engine, tiny_tokenizer):
        rng = np.random.default_rng(16)
        prompt, _, _ = make_recall_prompt(tiny_tokenizer, rng, n_filler=300)
        stats = engine.generate(prompt, max_new_tokens=4)
        lengths = [e.seq_len for e in stats.offload_events]
        assert lengths == sorted(lengths)
