"""Tests for the shared-prefill evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import make_functional_setup
from repro.workloads.harness import (
    decode_with_policy,
    prepare_prompt,
    score_qa,
    sweep_qa,
)
from repro.workloads.longbench import make_passage_count, make_trivia


@pytest.fixture(scope="module")
def setup():
    return make_functional_setup(seed=4, head_noise=0.3)


@pytest.fixture(scope="module")
def example(setup):
    rng = np.random.default_rng(41)
    return make_trivia(setup.tokenizer, rng, context_len=384, answer_len=3)


class TestPreparedPrompt:
    def test_prefill_excludes_last_token(self, setup, example):
        prepared = prepare_prompt(setup.model, example.prompt_ids)
        assert prepared.cache.seq_len == example.prompt_len - 1
        assert prepared.pending_token == int(example.prompt_ids[-1])

    def test_rejects_trivial_prompts(self, setup):
        with pytest.raises(ValueError):
            prepare_prompt(setup.model, np.array([5]))

    def test_decode_does_not_mutate_prepared_cache(self, setup, example):
        prepared = prepare_prompt(setup.model, example.prompt_ids)
        before = prepared.cache.seq_len
        decode_with_policy(setup.model, prepared, None, 4)
        assert prepared.cache.seq_len == before

    def test_decode_matches_generate(self, setup, example):
        """The harness decode loop reproduces TransformerLM.generate."""
        prepared = prepare_prompt(setup.model, example.prompt_ids)
        harness = decode_with_policy(setup.model, prepared, None, 3)
        reference = setup.model.generate(
            example.prompt_ids, 3, sparse_from_first_token=True
        )
        assert harness.token_ids == reference.token_ids

    def test_repeated_decodes_are_deterministic(self, setup, example):
        prepared = prepare_prompt(setup.model, example.prompt_ids)
        a = decode_with_policy(setup.model, prepared, None, 4)
        b = decode_with_policy(setup.model, prepared, None, 4)
        assert a.token_ids == b.token_ids


class TestPolicyBench:
    def test_all_advertised_engines_construct(self, setup):
        bench = setup.bench
        for engine in bench.available():
            policy = bench.policy(engine, 64)
            if engine == "Full":
                assert policy is None
            else:
                assert policy is not None

    def test_ours_is_invariant_to_example_and_engine_order(self, setup):
        """Every policy is a fresh session view of the bench's head, so an
        example's score and selections do not depend on which examples or
        which engine ("Ours" / "Ours(batch)") ran before it."""
        rng = np.random.default_rng(44)
        examples = [
            make_trivia(setup.tokenizer, rng, context_len=384, answer_len=3)
            for _ in range(2)
        ]
        prepared = [prepare_prompt(setup.model, e.prompt_ids) for e in examples]

        def run(order):
            cells = {}
            for engine, i in order:
                out = decode_with_policy(
                    setup.model, prepared[i], setup.bench.policy(engine, 32),
                    examples[i].max_new_tokens, examples[i].stop_ids,
                )
                cells[engine, i] = (score_qa(examples[i], out.token_ids), out)
            return cells

        order = [(e, i) for e in ("Ours", "Ours(batch)") for i in range(2)]
        forward, backward = run(order), run(order[::-1])
        for cell in order:
            (score_f, out_f), (score_b, out_b) = forward[cell], backward[cell]
            assert score_f == score_b and out_f.token_ids == out_b.token_ids
            assert len(out_f.selections) == len(out_b.selections) > 0
            for step_f, step_b in zip(out_f.selections, out_b.selections):
                assert step_f.keys() == step_b.keys() and step_f
                for layer, selection in step_f.items():
                    assert np.array_equal(selection, step_b[layer])
        a, b = setup.bench.policy("Ours", 32), setup.bench.policy("Ours(batch)", 32)
        assert a.head is not b.head and a.head is not setup.bench.head
        assert np.shares_memory(a.head.wq, setup.bench.head.wq)

    def test_unknown_engine_raises(self, setup):
        with pytest.raises(KeyError):
            setup.bench.policy("vLLM", 64)

    def test_mla_bench_restricts_baselines(self):
        from repro.models.config import AttentionKind

        mla = make_functional_setup(attention=AttentionKind.MLA, seed=5)
        with pytest.raises(NotImplementedError):
            mla.bench.policy("Quest", 64)
        assert mla.bench.policy("Ours", 64) is not None


class TestScoring:
    def test_qa_score_uses_f1(self, example):
        assert score_qa(example, list(example.answer_ids)) == 1.0
        assert score_qa(example, []) == 0.0

    def test_passage_count_scoring(self, setup):
        rng = np.random.default_rng(43)
        example = make_passage_count(
            setup.tokenizer, rng, context_len=384, n_distinct=5
        )
        perfect = list(example.answer_ids)  # 4 pids then <sep>
        assert score_qa(example, perfect) == 1.0
        # Stopping early undercounts.
        short = perfect[:2] + [setup.tokenizer.sep_id]
        assert score_qa(example, short) == pytest.approx(1.0 - 2 / 5)

    def test_sweep_covers_all_cells(self, setup, example):
        cells = sweep_qa(
            setup.model, setup.bench, [example], ["Full", "Ours"], [32, 64]
        )
        assert set(cells) == {
            ("Full", 32), ("Full", 64), ("Ours", 32), ("Ours", 64),
        }
        assert all(0.0 <= v <= 1.0 for v in cells.values())

    def test_full_attention_budget_invariant(self, setup, example):
        cells = sweep_qa(setup.model, setup.bench, [example], ["Full"], [32, 256])
        assert cells[("Full", 32)] == cells[("Full", 256)]
