"""Tests for memory-limited batch capacity."""

from __future__ import annotations

import pytest

from repro.hardware.spec import CLOUD_A800
from repro.models.config import LLAMA_LIKE_8B
from repro.perf.capacity import max_fitting_batch
from repro.perf.engines import (
    CLUSTERKV,
    FLASHINFER,
    HF_EAGER,
    QUEST,
    SPECONTEXT,
)
from repro.perf.simulate import PerfSimulator


@pytest.fixture(scope="module")
def sim():
    return PerfSimulator(LLAMA_LIKE_8B, CLOUD_A800, budget=2048)


class TestMaxFittingBatch:
    def test_full_attention_capped_by_kv_memory(self, sim):
        cap = max_fitting_batch(sim, FLASHINFER, 2048, 32768)
        assert 4 <= cap <= 16

    def test_sparse_engine_fits_more(self, sim):
        full = max_fitting_batch(sim, FLASHINFER, 2048, 32768)
        ours = max_fitting_batch(sim, SPECONTEXT, 2048, 32768)
        assert ours > full

    def test_eager_cannot_fit_long_prompts(self, sim):
        assert max_fitting_batch(sim, HF_EAGER, 32768, 2048) == 0

    def test_single_request_engines_capped_at_one(self, sim):
        assert max_fitting_batch(sim, QUEST, 2048, 8192) <= 1

    @pytest.mark.parametrize("engine", [QUEST, CLUSTERKV], ids=lambda e: e.name)
    def test_single_request_engine_admits_exactly_one(self, sim, engine):
        assert max_fitting_batch(sim, engine, 2048, 2048) == 1

    @pytest.mark.parametrize(
        "engine", [FLASHINFER, SPECONTEXT], ids=lambda e: e.name
    )
    def test_capacity_shrinks_as_outputs_grow(self, sim, engine):
        caps = [
            max_fitting_batch(sim, engine, 2048, out_len)
            for out_len in (2048, 8192, 32768, 131072)
        ]
        assert caps == sorted(caps, reverse=True)
        assert caps[0] > caps[-1]

    def test_answer_is_a_candidate_or_zero(self, sim):
        assert max_fitting_batch(sim, FLASHINFER, 2048, 2048, (3, 5, 7)) == 7
        assert max_fitting_batch(sim, FLASHINFER, 2048, 2048, ()) == 0
