"""Tests for the synthetic LongBench task generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.tokenizer import SyntheticTokenizer
from repro.workloads.base import EntityPool, weave_context
from repro.workloads.longbench import (
    TASKS,
    generate_examples,
    make_2wikimqa,
    make_hotpotqa,
    make_passage_count,
    make_trivia,
)


@pytest.fixture(scope="module")
def tokenizer():
    return SyntheticTokenizer(2048)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestEntityPool:
    def test_entities_disjoint(self, tokenizer, rng):
        pool = EntityPool(tokenizer, rng)
        a = pool.take(10)
        b = pool.take(10)
        assert not set(a) & set(b)
        assert all(tokenizer.is_content(t) for t in a + b)

    def test_exhaustion_raises(self, tokenizer, rng):
        pool = EntityPool(tokenizer, rng)
        with pytest.raises(ValueError):
            pool.take(tokenizer.n_content + 1)


class TestWeave:
    def test_exact_length_and_bos(self, tokenizer, rng):
        ids, starts = weave_context(tokenizer, rng, [[10, 11], [12, 13, 14]], 128)
        assert len(ids) == 128
        assert ids[0] == tokenizer.bos_id

    def test_segments_intact_at_reported_positions(self, tokenizer, rng):
        segments = [[100, 101, 102], [200, 201]]
        ids, starts = weave_context(tokenizer, rng, segments, 256)
        for seg, start in zip(segments, starts):
            assert ids[start : start + len(seg)] == seg

    def test_segments_never_adjacent(self, tokenizer, rng):
        segments = [[100], [101], [102], [103]]
        ids, starts = weave_context(tokenizer, rng, segments, 64)
        boundaries = sorted(starts)
        for a, b in zip(boundaries, boundaries[1:]):
            assert b - a >= 2  # at least one filler token between segments

    def test_too_small_context_raises(self, tokenizer, rng):
        with pytest.raises(ValueError):
            weave_context(tokenizer, rng, [[1] * 50], 52)


class TestGenerators:
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_prompt_length_and_layout(self, task, tokenizer, rng):
        example = TASKS[task](tokenizer, rng, context_len=512)
        # Context plus "<q> key".
        assert example.prompt_len == 512 + 2
        assert example.prompt_ids[0] == tokenizer.bos_id
        assert example.prompt_ids[-2] == tokenizer.question_id

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_evidence_positions_point_into_prompt(self, task, tokenizer, rng):
        example = TASKS[task](tokenizer, rng, context_len=512)
        assert example.evidence_positions
        for pos in example.evidence_positions:
            assert 0 < pos < example.prompt_len - 2

    def test_trivia_evidence_is_key_then_answer(self, tokenizer, rng):
        example = make_trivia(tokenizer, rng, context_len=512, answer_len=3)
        start = example.evidence_positions[0]
        key = int(example.prompt_ids[-1])
        assert int(example.prompt_ids[start]) == key
        planted = [int(t) for t in example.prompt_ids[start + 1 : start + 4]]
        assert planted == list(example.answer_ids)

    def test_two_hop_answer_starts_with_bridge(self, tokenizer, rng):
        example = make_2wikimqa(tokenizer, rng, context_len=512, tail_len=2)
        # Doc A is <doc> key bridge: the bridge is the token after the key.
        start_a = example.evidence_positions[0]
        bridge = int(example.prompt_ids[start_a + 2])
        assert example.answer_ids[0] == bridge

    def test_hotpot_supports_at_extremes(self, tokenizer, rng):
        example = make_hotpotqa(tokenizer, rng, context_len=512)
        positions = example.evidence_positions
        assert min(positions) < 16
        assert max(positions) > 512 - 16

    def test_passage_count_meta_and_stop(self, tokenizer, rng):
        example = make_passage_count(
            tokenizer, rng, context_len=512, n_distinct=5, n_duplicates=3
        )
        assert example.meta["true_count"] == 5
        assert example.stop_ids == (tokenizer.sep_id,)
        assert example.answer_ids[-1] == tokenizer.sep_id
        assert len(example.answer_ids) == 5  # 4 remaining pids + <sep>

    def test_passage_count_needs_two_passages(self, tokenizer, rng):
        with pytest.raises(ValueError):
            make_passage_count(tokenizer, rng, n_distinct=1)

    def test_generate_examples_batch(self, tokenizer, rng):
        examples = generate_examples("trivia", tokenizer, rng, 3, context_len=512)
        assert len(examples) == 3
        prompts = {tuple(e.prompt_ids.tolist()) for e in examples}
        assert len(prompts) == 3  # i.i.d. draws differ

    def test_unknown_task_raises(self, tokenizer, rng):
        with pytest.raises(KeyError):
            generate_examples("nope", tokenizer, rng, 1)


class TestSolvability:
    """Full attention on the constructed model must solve every task —
    the causal premise of the accuracy experiments."""

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_full_attention_solves_task(self, task, tokenizer, rng):
        from repro.experiments.common import make_functional_setup
        from repro.workloads.harness import sweep_qa

        setup = make_functional_setup(seed=3)
        examples = generate_examples(
            task, setup.tokenizer, rng, 2, context_len=384
        )
        cells = sweep_qa(setup.model, setup.bench, examples, ["Full"], [10**6])
        score = cells["Full", 10**6]
        assert score >= 0.75
