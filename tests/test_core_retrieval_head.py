"""Tests for the lightweight retrieval head (paper Sec. 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.retrieval_head import (
    LightweightRetrievalHead,
    RetrievalHeadConfig,
    SpeContextPolicy,
)
from repro.distill.dlm import full_dlm_analog
from repro.models import AttentionKind
from repro.tensor.ops import softmax, top_k_indices


HEAD_SEED = 3


def make_head(model, tokenizer, noise=0.15, **kwargs):
    config = RetrievalHeadConfig(noise=noise, **kwargs)
    return LightweightRetrievalHead.from_teacher(
        model.weights, tokenizer.bos_id, np.random.default_rng(HEAD_SEED), config=config
    )


def make_head_with_roles(model, tokenizer, roles):
    """A head with hand-picked roles (one selection head per role)."""
    cfg = model.config
    assert cfg.group_size == 1
    return LightweightRetrievalHead(
        cfg, model.weights.embedding[:, : cfg.head_dim], tokenizer.bos_id,
        roles, RetrievalHeadConfig(), np.random.default_rng(HEAD_SEED),
    )


def assert_view_contract(view, head):
    """Every attribute of a view is the server head's own object, except
    the per-session state, which is fresh and shares no memory with it."""
    own = {n for n, value in vars(view).items() if value is not getattr(head, n)}
    assert own and len(view) == 0
    for name in own:
        value = getattr(view, name)
        if isinstance(value, np.ndarray):
            assert not np.shares_memory(value, getattr(head, name)), name
            assert not value.any(), name
        else:
            assert value == [], name
    assert own.isdisjoint({"wq", "wk", "content", "rope"})


class OracleHead:
    """The straight-line head the fast one must equal bit for bit: every
    key row in one float32 array, a per-head scoring loop with a
    ``rope.apply`` per local head, a full softmax, ``top_k_indices`` then
    ``np.sort``. Reads only a head's weights; keeps its own history."""

    def __init__(self, head, max_len=640):
        self.h = head
        rng = np.random.default_rng(HEAD_SEED)  # replay the constructor's draws
        for _ in range(2 * head.n_heads):
            rng.standard_normal((head.dc, head.dc))
        seed = int(rng.integers(0, 2**63))
        self.noise = [
            np.random.default_rng([seed, i]).standard_normal((max_len, head.dc))
            for i in range(head.roles.count("noise"))
        ]
        self.keys = np.zeros((head.n_heads, 0, head.dc), dtype=np.float32)
        self.ids = []

    def observe(self, ids):
        h, n = self.h, len(ids)
        prev = ([self.ids[-1]] if self.ids else [ids[0]]) + ids[:-1]
        cur = h.content[ids]
        shifted = h.content[prev] + h.config.shift_mix * cur
        positions = np.arange(len(self.ids), len(self.ids) + n)
        new = np.zeros((h.n_heads, n, h.dc), dtype=np.float32)
        noise = iter(self.noise)
        for i, role in enumerate(h.roles):
            if role == "induction":
                new[i] = shifted @ h.wk[i].T
            elif role == "sink":
                new[i] = cur
            elif role == "local":
                u = np.ones((1, n, h.dc), dtype=np.float32)
                new[i] = h.rope.apply(u / np.sqrt(h.dc), positions)[0]
            else:
                new[i] = next(noise)[positions]
        self.keys = np.concatenate([self.keys, new], axis=1)
        self.ids += ids

    def restore(self, length):
        self.keys = self.keys[:, :length]
        del self.ids[length:]

    def weights(self, token):
        h, seq = self.h, len(self.ids)
        cur = h.content[token]
        logits = np.empty((h.n_heads, seq), dtype=np.float64)
        for i, role in enumerate(h.roles):
            if role == "induction":
                q = h.wq[i] @ cur
                logits[i] = (self.keys[i] @ q) * h.config.induction_sharpness
            elif role == "sink":
                q = h.content[h.bos_id]
                logits[i] = (self.keys[i] @ q) * h.config.sink_sharpness
            elif role == "local":
                u = np.ones((1, 1, h.dc), dtype=np.float32) / np.sqrt(h.dc)
                clamped = min(seq, h.rope.max_position - 1)
                q = h.rope.apply(u, np.array([clamped]))[0, 0]
                logits[i] = (self.keys[i] @ q) * h.config.local_sharpness
            else:
                logits[i] = self.keys[i] @ (cur / np.sqrt(h.dc))
        return softmax(logits, axis=-1)

    def reduced(self, token):
        cfg = self.h.teacher_config
        weights = self.weights(token)
        if cfg.attention in (AttentionKind.MHA, AttentionKind.MLA):
            return weights
        return weights.reshape(cfg.n_kv_heads, cfg.group_size, -1).max(axis=1)

    def select(self, token, budget, level):
        pinned = self.reduced(token).copy()
        seq = pinned.shape[1]
        budget = min(budget, seq)
        pinned[:, : self.h.config.always_sink] = 2.0
        pinned[:, max(seq - self.h.config.always_recent, 0):] = 2.0
        if level == "head":
            return np.sort(top_k_indices(pinned, budget, axis=-1), axis=-1)
        shared = np.sort(top_k_indices(pinned.max(axis=0), budget))
        return np.broadcast_to(shared, (pinned.shape[0], budget)).copy()


def assert_equals_oracle(head, oracle, token, budget, level):
    assert len(head) == len(oracle.ids)
    for ours, theirs in (
        (head.keys, oracle.keys),
        (head.attention_weights(token), oracle.weights(token)),
        (head.group_reduced_weights(token), oracle.reduced(token)),
        (head.select(token, budget, level), oracle.select(token, budget, level)),
    ):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


def assert_same_keys(a, b):
    """Noise/sink/local rows bit-equal; induction rows to GEMM-blocking
    tolerance (``shifted @ wk.T`` blocks differently per chunk shape)."""
    assert a.keys.shape == b.keys.shape
    for h, role in enumerate(a.roles):
        if role == "induction":
            np.testing.assert_allclose(a.keys[h], b.keys[h], rtol=1e-5)
        else:
            assert (a.keys[h] == b.keys[h]).all(), role


class TestConstruction:
    def test_head_count_matches_teacher_q_heads(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        assert head.n_heads == tiny_gqa_model.config.n_q_heads

    def test_mla_head_count_matches_q_heads(self, tiny_mla_model, tiny_tokenizer):
        head = make_head(tiny_mla_model, tiny_tokenizer)
        assert head.n_heads == tiny_mla_model.config.n_q_heads

    def test_parameter_reduction_exceeds_90_percent(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        dlm = full_dlm_analog(tiny_gqa_model.config)
        reduction = 1.0 - head.parameter_count() / dlm.total_params()
        assert reduction > 0.90

    def test_shared_embedding_not_counted_by_default(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        marginal = head.parameter_count()
        with_embedding = head.parameter_count(include_shared_embedding=True)
        assert with_embedding - marginal == head.content.size


class TestKCache:
    def test_observe_extends_cache(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe([1, 2, 3])
        head.observe(7)
        assert len(head) == 4

    def test_reset_clears_cache(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe([1, 2, 3])
        head.reset()
        assert len(head) == 0

    def test_k_cache_bytes_grow_linearly(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(10)))
        ten = head.k_cache_bytes()
        head.observe(list(range(10)))
        assert head.k_cache_bytes() == 2 * ten

    def test_chunked_observe_equals_single_observe(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        a = make_head(tiny_gqa_model, tiny_tokenizer)
        b = make_head(tiny_gqa_model, tiny_tokenizer)
        ids = list(range(10, 40))
        a.observe(ids)
        b.observe(ids[:13])
        b.observe(ids[13:])
        assert_same_keys(b, a)

    def test_token_by_token_observe_across_doublings_equals_one_shot(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """The K cache is a pure function of the token history: however
        300 tokens are chunked across the 64 -> 128 -> 256 -> 512
        reallocations (of the K buffer and of the noise-key table), the
        keys match a one-shot observe, which allocates once."""
        ids = [int(t) for t in np.random.default_rng(5).integers(8, 500, size=300)]
        one_shot = make_head(tiny_gqa_model, tiny_tokenizer)
        assert set(one_shot.roles) == {"induction", "sink", "local", "noise"}
        one_shot.observe(ids)
        for sizes in ([1] * 300, [1, 63, 2, 130, 104], [299, 1], [7] * 42 + [6]):
            assert sum(sizes) == 300
            chunked = make_head(tiny_gqa_model, tiny_tokenizer)
            start = 0
            for size in sizes:
                chunked.observe(ids[start : start + size])
                start += size
            assert len(chunked) == len(one_shot) == 300
            assert chunked.k_cache_bytes() == one_shot.k_cache_bytes()
            assert_same_keys(chunked, one_shot)

    def test_restore_after_reallocation_is_bit_exact(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """The spec-rollback contract: a marker is just ``len(head)``.
        marker -> observes that outgrow the storage -> restore puts keys
        and token ids back, and replaying the same tokens — chunked
        differently — reproduces the same keys, noise rows included."""
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        assert "noise" in head.roles
        head.observe(list(range(10, 70)))  # 60 rows in 64 slots
        marker = len(head)
        keys_at_marker = head.keys.copy()
        ids_at_marker = list(head._token_ids)

        drafted = list(range(100, 180))  # 80 more: reallocates
        head.observe(drafted[:3])
        head.observe(drafted[3:])
        keys_after = head.keys.copy()
        assert len(head) == 140

        head.restore(marker)
        assert len(head) == 60
        assert head._token_ids == ids_at_marker
        assert (head.keys == keys_at_marker).all()
        assert head.k_cache_bytes() == keys_at_marker.size * 2

        for token in drafted:
            head.observe(token)
        replayed = head.keys
        for h, role in enumerate(head.roles):
            if role == "induction":  # GEMM blocking differs by chunk shape
                np.testing.assert_allclose(replayed[h], keys_after[h], rtol=1e-5)
            else:
                assert (replayed[h] == keys_after[h]).all(), role

    def test_noise_keys_stop_at_the_rope_table(self, tiny_gqa_model, tiny_tokenizer):
        """Positions past ``rope.max_position`` raise, naming the position,
        and leave the head unchanged."""
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        assert {"local", "noise"} <= set(head.roles)
        self.check_position_limit(head)

    def test_position_limit_does_not_depend_on_the_roles(
        self, tiny_mha_model, tiny_tokenizer
    ):
        """No table-backed role at all: ``observe`` itself checks the limit."""
        head = make_head_with_roles(
            tiny_mha_model, tiny_tokenizer, ["induction", "sink"]
        )
        self.check_position_limit(head)

    @staticmethod
    def check_position_limit(head):
        limit = head.rope.max_position
        head.observe([9] * (limit - 1))
        with pytest.raises(ValueError, match=f"position {limit} exceeds table size"):
            head.observe([9, 9])
        assert len(head) == limit - 1
        head.observe(9)
        assert len(head) == limit
        with pytest.raises(ValueError, match=f"position {limit} exceeds table size"):
            head.observe(9)
        # The query of the next step would sit at ``limit``: it clamps to
        # the last table row, as the straight-line head does.
        oracle = OracleHead(head, max_len=limit)
        oracle.observe([9] * limit)
        assert np.array_equal(head.attention_weights(11), oracle.weights(11))

    def test_restore_rejects_newer_marker(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe([1, 2, 3])
        head.reset()
        with pytest.raises(ValueError):
            head.restore(3)

    def test_scoring_empty_cache_raises(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        with pytest.raises(RuntimeError):
            head.attention_weights(5)


class TestViews:
    def test_views_share_weights_and_own_their_rows(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        a, b = head.view(), head.view()
        assert a._tables is b._tables is head._tables  # one set per server
        for view in (a, b):
            assert_view_contract(view, head)
        a.observe(list(range(10, 90)))  # grows a's blocks and the shared tables
        b.observe([5, 6, 7])
        assert (len(a), len(b), len(head)) == (80, 3, 0)
        assert a._tables is b._tables is head._tables  # grown, never copied
        solo = make_head(tiny_gqa_model, tiny_tokenizer)
        solo.observe([5, 6, 7])
        assert (b.keys == solo.keys).all()  # b never saw a's rows
        noise = [h for h, role in enumerate(head.roles) if role == "noise"]
        assert (a.keys[noise][:, :3] == b.keys[noise]).all()  # one table

    def test_a_views_storage_is_only_its_token_history(
        self, tiny_mha_model, tiny_tokenizer
    ):
        """``local`` and ``noise`` keys live in the shared position tables:
        adding such heads adds nothing to what a session owns."""
        def own_bytes(roles):
            head = make_head_with_roles(tiny_mha_model, tiny_tokenizer, roles)
            view = head.view()
            view.observe(list(range(8, 208)))
            assert view.keys.shape == (len(roles), 200, head.dc)
            return sum(
                value.nbytes
                for name, value in vars(view).items()
                if isinstance(value, np.ndarray) and value is not getattr(head, name)
            )

        base = own_bytes(["induction", "sink"])
        assert base > 0
        assert own_bytes(["induction", "sink", "sink"] + ["local", "noise"] * 3) == base
        assert own_bytes(["induction", "induction", "sink"]) > base

    def test_shared_weights_are_read_only(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        for array in (head.wq, head.wk, head.content):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_view_of_a_used_head_starts_empty(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe([1, 2, 3])
        view = head.view()
        assert len(view) == 0 and len(head) == 3
        view.observe([4])
        assert head._token_ids == [1, 2, 3]


class TestSelection:
    def test_attention_weights_normalized(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        weights = head.attention_weights(10)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-6)

    def test_head_level_shape_gqa(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        sel = head.select(10, budget=16, level="head")
        assert sel.shape == (tiny_gqa_model.config.n_kv_heads, 16)

    def test_head_level_shape_mha(self, tiny_mha_model, tiny_tokenizer):
        head = make_head(tiny_mha_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        sel = head.select(10, budget=16, level="head")
        assert sel.shape == (tiny_mha_model.config.n_q_heads, 16)

    def test_head_level_shape_mqa(self, tiny_mqa_model, tiny_tokenizer):
        head = make_head(tiny_mqa_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        sel = head.select(10, budget=16, level="head")
        assert sel.shape == (1, 16)

    def test_head_level_shape_mla(self, tiny_mla_model, tiny_tokenizer):
        head = make_head(tiny_mla_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        sel = head.select(10, budget=16, level="head")
        assert sel.shape == (tiny_mla_model.config.n_q_heads, 16)

    def test_batch_level_shares_one_set(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 120)))
        sel = head.select(10, budget=16, level="batch")
        for row in sel[1:]:
            np.testing.assert_array_equal(row, sel[0])

    def test_budget_capped_by_sequence(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 28)))
        sel = head.select(10, budget=999)
        assert sel.shape[1] == 20

    def test_selection_indices_in_range_and_unique(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 208)))
        sel = head.select(10, budget=32)
        assert sel.min() >= 0 and sel.max() < 200
        for row in sel:
            assert len(np.unique(row)) == row.size

    def test_sink_and_recent_positions_pinned(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer, always_sink=1, always_recent=2)
        head.observe(list(range(8, 208)))
        sel = head.select(10, budget=16)
        for row in sel:
            assert 0 in row  # attention sink
            assert 198 in row and 199 in row  # the two most recent tokens

    def test_unknown_level_raises(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 40)))
        with pytest.raises(ValueError):
            head.select(10, budget=8, level="token")

    def test_selection_finds_planted_evidence(self, tiny_gqa_model, tiny_tokenizer):
        """The induction-role heads must rank the value after a repeated key."""
        rng = np.random.default_rng(5)
        head = make_head(tiny_gqa_model, tiny_tokenizer, noise=0.1)
        key, value = (
            int(t) for t in tiny_tokenizer.random_content_ids(rng, 2)
        )
        filler = [int(t) for t in tiny_tokenizer.random_filler_ids(rng, 100)]
        ids = filler[:50] + [key, value] + filler[50:]
        head.observe(ids)
        sel = head.select(key, budget=8, level="head")
        value_pos = 51
        induction_rows = [
            i for i, role in enumerate(head.roles) if role == "induction"
        ]
        cfg = tiny_gqa_model.config
        group = cfg.group_size
        kv_rows = {r // group for r in induction_rows}
        assert any(value_pos in sel[r] for r in kv_rows)


class TestGroupReduction:
    def test_gqa_group_max(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        head.observe(list(range(8, 72)))
        full = head.attention_weights(9)
        reduced = head.group_reduced_weights(9)
        cfg = tiny_gqa_model.config
        assert reduced.shape == (cfg.n_kv_heads, 64)
        manual = full.reshape(cfg.n_kv_heads, cfg.group_size, -1).max(axis=1)
        np.testing.assert_allclose(reduced, manual)

    def test_mha_no_reduction(self, tiny_mha_model, tiny_tokenizer):
        head = make_head(tiny_mha_model, tiny_tokenizer)
        head.observe(list(range(8, 72)))
        assert head.group_reduced_weights(9).shape[0] == head.n_heads


class TestPolicy:
    def test_policy_requires_positive_budget(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        with pytest.raises(ValueError):
            SpeContextPolicy(head, budget=0)

    def test_policy_full_attention_below_budget(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        policy = SpeContextPolicy(head, budget=64)
        cache = tiny_gqa_model.new_cache()
        policy.begin_generation(np.arange(8, 24), cache)
        policy.pre_step(0, 9, cache)
        assert policy.select(0, None, 16, None) is None

    def test_policy_selects_above_budget(self, tiny_gqa_model, tiny_tokenizer):
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        policy = SpeContextPolicy(head, budget=16)
        cache = tiny_gqa_model.new_cache()
        policy.begin_generation(np.arange(8, 108), cache)
        policy.pre_step(0, 9, cache)
        selection = policy.select(0, None, 100, None)
        assert selection is not None and selection.shape[1] == 16
        assert len(policy.selection_history) == 1

    def test_same_selection_used_for_all_layers(self, tiny_gqa_model, tiny_tokenizer):
        """The paradigm shift: selection is global, not per-layer."""
        head = make_head(tiny_gqa_model, tiny_tokenizer)
        policy = SpeContextPolicy(head, budget=16)
        cache = tiny_gqa_model.new_cache()
        policy.begin_generation(np.arange(8, 108), cache)
        policy.pre_step(0, 9, cache)
        first = policy.select(0, None, 100, None)
        for layer in range(1, 4):
            np.testing.assert_array_equal(first, policy.select(layer, None, 100, None))


class TestEqualsTheStraightLineHead:
    """Exactness of the fast head: weights, selections and keys are
    ``array_equal`` to :class:`OracleHead` at every step."""

    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(["gqa", "mha", "mqa", "mla"]),
        prompt_lens=st.tuples(st.integers(1, 70), st.integers(1, 70)),
        budget=st.integers(1, 300),
        level=st.sampled_from(["head", "batch"]),
        rollback=st.tuples(st.integers(60, 250), st.integers(1, 59)),
        seed=st.integers(0, 2**16),
    )
    @example(kind="gqa", prompt_lens=(64, 1), budget=128, level="head",
             rollback=(129, 1), seed=0)
    @example(kind="mla", prompt_lens=(1, 65), budget=1, level="batch",
             rollback=(200, 59), seed=1)
    @example(kind="mqa", prompt_lens=(70, 70), budget=300, level="head",
             rollback=(60, 30), seed=2)
    def test_two_interleaved_views_equal_their_oracles_at_every_step(
        self, tiny_gqa_model, tiny_mha_model, tiny_mqa_model, tiny_mla_model,
        tiny_tokenizer, kind, prompt_lens, budget, level, rollback, seed,
    ):
        """Two views of one head, stepped in a drawn interleaving from
        their prompts to 270 tokens each — three doublings of the session
        blocks (64 -> 512) and at least two of the shared tables — with
        the budget on both sides of the length and one rollback, of the
        view that first reaches ``rollback[0]`` tokens, by ``rollback[1]``."""
        models = dict(gqa=tiny_gqa_model, mha=tiny_mha_model,
                      mqa=tiny_mqa_model, mla=tiny_mla_model)
        head = make_head(models[kind], tiny_tokenizer)
        rng = np.random.default_rng(seed)
        pairs = []
        for prompt_len in prompt_lens:
            view, oracle = head.view(), OracleHead(head)
            prompt = [int(t) for t in rng.integers(8, 500, size=prompt_len)]
            view.observe(prompt)
            oracle.observe(prompt)
            pairs.append((view, oracle))
        rollback_at, rollback_by = rollback
        rolled_back = False
        while pairs:
            which = int(rng.integers(len(pairs)))
            view, oracle = pairs[which]
            token = int(rng.integers(8, 500))
            assert_equals_oracle(view, oracle, token, budget, level)
            view.observe(token)
            oracle.observe([token])
            if not rolled_back and len(view) >= rollback_at:
                rolled_back = True
                view.restore(len(view) - rollback_by)
                oracle.restore(len(oracle.ids) - rollback_by)
            if len(view) >= 270:
                del pairs[which]
        assert rolled_back
