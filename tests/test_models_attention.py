"""Tests for the attention module's sparse-decode paths.

The correctness contract behind every accuracy experiment: decoding with a
selection that covers the whole cache must equal full attention, for every
attention family and for both 1-D (shared) and 2-D (per-head) selections.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.attention import PREFILL_TILE
from repro.models.config import AttentionKind


MODELS = ["tiny_mha_model", "tiny_gqa_model", "tiny_mqa_model", "tiny_mla_model"]


class _FixedSelection:
    """SelectionPolicy returning one fixed index array for every layer."""

    def __init__(self, selection):
        self.selection = selection

    def begin_generation(self, prompt_ids, cache):
        pass

    def pre_step(self, step, token_id, cache):
        pass

    def select(self, layer, hidden, position, cache):
        return self.selection


def _prompt(tokenizer, rng, n=64):
    ids = [tokenizer.bos_id]
    ids += [int(t) for t in tokenizer.random_filler_ids(rng, n - 2)]
    ids += [int(tokenizer.random_content_ids(rng, 1)[0])]
    return np.array(ids)


@pytest.mark.parametrize("model_name", MODELS)
class TestSelectionEquivalence:
    def test_full_coverage_selection_equals_full_attention(
        self, model_name, request, tiny_tokenizer
    ):
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(51)
        prompt = _prompt(tiny_tokenizer, rng)

        cache_full = model.new_cache()
        model.prefill(prompt, cache_full)
        logits_full, _, _ = model.decode_step(7, cache_full)

        cache_sel = model.new_cache()
        model.prefill(prompt, cache_sel)
        everything = np.arange(cache_sel.seq_len + 1)  # includes the new token
        policy = _FixedSelection(everything)
        logits_sel, selections, _ = model.decode_step(7, cache_sel, policy=policy)

        np.testing.assert_allclose(logits_sel, logits_full, rtol=1e-4, atol=1e-5)
        assert selections  # the policy was consulted

    def test_per_head_full_coverage_equals_full(
        self, model_name, request, tiny_tokenizer
    ):
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(52)
        prompt = _prompt(tiny_tokenizer, rng)

        cache_full = model.new_cache()
        model.prefill(prompt, cache_full)
        logits_full, _, _ = model.decode_step(9, cache_full)

        cache_sel = model.new_cache()
        model.prefill(prompt, cache_sel)
        if model.config.attention is AttentionKind.MLA:
            n_sel_heads = model.config.n_q_heads
        else:
            n_sel_heads = model.config.n_kv_heads
        everything = np.arange(cache_sel.seq_len + 1)
        selection = np.broadcast_to(
            everything, (n_sel_heads, everything.size)
        ).copy()
        logits_sel, _, _ = model.decode_step(
            9, cache_sel, policy=_FixedSelection(selection)
        )
        np.testing.assert_allclose(logits_sel, logits_full, rtol=1e-4, atol=1e-5)

    def test_partial_selection_changes_logits(
        self, model_name, request, tiny_tokenizer
    ):
        """Dropping most of the cache must change the output distribution
        (otherwise the sparsity experiments measure nothing)."""
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(53)
        prompt = _prompt(tiny_tokenizer, rng, n=96)

        cache_full = model.new_cache()
        model.prefill(prompt, cache_full)
        logits_full, _, _ = model.decode_step(11, cache_full)

        cache_sel = model.new_cache()
        model.prefill(prompt, cache_sel)
        tiny_sel = np.arange(4)
        logits_sel, _, _ = model.decode_step(
            11, cache_sel, policy=_FixedSelection(tiny_sel)
        )
        assert not np.allclose(logits_sel, logits_full, rtol=1e-3)


class TestCurrentTokenUnion:
    def test_current_position_always_attended(self, tiny_gqa_model, tiny_tokenizer):
        """_ensure_current: the just-appended KV pair is never dropped."""
        rng = np.random.default_rng(54)
        prompt = _prompt(tiny_tokenizer, rng)
        cache = tiny_gqa_model.new_cache()
        tiny_gqa_model.prefill(prompt, cache)
        position = cache.seq_len
        selection_without_current = np.arange(8)
        _, selections, _ = tiny_gqa_model.decode_step(
            5, cache, policy=_FixedSelection(selection_without_current)
        )
        for used in selections.values():
            assert position in np.asarray(used).ravel()

    def test_capture_attention_shapes(self, tiny_gqa_model, tiny_tokenizer):
        rng = np.random.default_rng(55)
        prompt = _prompt(tiny_tokenizer, rng)
        cache = tiny_gqa_model.new_cache()
        tiny_gqa_model.prefill(prompt, cache)
        _, _, attn = tiny_gqa_model.decode_step(5, cache, capture_attention=True)
        assert len(attn) == tiny_gqa_model.config.n_layers
        for weights in attn:
            assert weights.shape[0] == tiny_gqa_model.config.n_q_heads
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-5)


@pytest.mark.parametrize("model_name", MODELS)
class TestDecodeRowsMixedWave:
    def test_mixed_wave_equals_per_session_decode(
        self, model_name, request, tiny_tokenizer
    ):
        """Full, 1-D and head-level rows of different widths in one wave
        (two of them sharing a width, so a 1-D and a head-level row stack
        in one bucket): every row is bit-equal to ``decode`` on its own."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        attn = model.layers[0].attention
        sel_heads = (
            cfg.n_q_heads if cfg.attention is AttentionKind.MLA else cfg.n_kv_heads
        )
        rng = np.random.default_rng(77)
        lengths = [40, 33, 52, 40, 47, 36]
        shapes = [None, None, (5,), (9,), (sel_heads, 9), (sel_heads, 12)]

        batched, solo, selections = [], [], []
        for length, shape in zip(lengths, shapes):
            cache = model.new_cache()
            model.prefill(_prompt(tiny_tokenizer, rng, n=length), cache)
            batched.append(cache[0])
            solo.append(cache.clone()[0])
            # Indices reach `length`: the decoded token is appended first.
            selections.append(
                None if shape is None else rng.integers(0, length + 1, size=shape)
            )
        positions = np.array(lengths)
        x_rows = rng.standard_normal((len(lengths), cfg.d_model)).astype(np.float32)

        attn.append_token_rows(x_rows, positions, batched)
        out_rows = attn.decode_rows(x_rows, positions, batched, selections)
        for j, length in enumerate(lengths):
            attn.append_token(x_rows[j], length, solo[j])
            out, _ = attn.decode(x_rows[j], length, solo[j], selection=selections[j])
            assert (out_rows[j] == out).all(), j


class TestRopeMaskHoisting:
    def test_masks_precomputed_and_reused(self, tiny_gqa_model):
        """Masks are built once at __init__, not per projection call."""
        for layer in tiny_gqa_model.layers:
            attn = layer.attention
            assert not attn._q_mask.flags.writeable
            assert attn._q_mask.dtype == bool
            assert attn._q_mask.shape == (attn.config.n_q_heads,)
            assert attn._kv_mask.shape[0] in (
                attn.config.n_kv_heads, attn.config.n_q_heads
            )

    def test_masks_match_layer_weights(self, tiny_gqa_model):
        import numpy as np

        for layer in tiny_gqa_model.layers:
            attn = layer.attention
            if attn.layer.rope_mask is not None:
                assert (
                    attn._q_mask == np.asarray(attn.layer.rope_mask, dtype=bool)
                ).all()
            else:
                assert attn._q_mask.all()


def _naive_prefill(attn, x, base, cache):
    """Row-by-row float64 causal attention over ``cache`` (which already
    holds the chunk's own KV at ``base..``), then the output projection."""
    cfg = attn.config
    seq = x.shape[0]
    q = attn._project_q(x, np.arange(base, base + seq)).astype(np.float64)
    if cfg.attention is AttentionKind.MLA:
        k, v = attn._mla_expand(cache.keys[0, 0], np.arange(len(cache)))
    else:
        k, v = cache.keys[0], cache.values[0]
    k, v = k.astype(np.float64), v.astype(np.float64)
    group = cfg.n_q_heads // k.shape[0]
    heads = np.empty((seq, cfg.n_q_heads, cfg.head_dim))
    for h in range(cfg.n_q_heads):
        for r in range(seq):
            visible = base + r + 1
            scores = k[h // group, :visible] @ q[h, r] / np.sqrt(cfg.head_dim)
            weights = np.exp(scores - scores.max())
            heads[r, h] = (weights / weights.sum()) @ v[h // group, :visible]
    return heads.reshape(seq, -1) @ attn.layer.wo.astype(np.float64).T


T = PREFILL_TILE


@pytest.mark.parametrize("model_name", MODELS)
class TestPrefillKernel:
    @pytest.mark.parametrize("kv_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "base,rows",
        [
            (0, 1),  # a single row
            (T // 2 + 3, 1),  # ... at an unaligned base
            (0, T),  # exactly one tile
            (0, T + 7),  # rows not a multiple of the tile
            (T // 2 + 3, 2 * T + 9),  # unaligned base, three tiles
            (T, 3 * T),  # several whole tiles behind a cached prefix
        ],
    )
    def test_prefill_matches_naive_reference(
        self, model_name, kv_dtype, base, rows, request
    ):
        model = request.getfixturevalue(model_name)
        attn = model.layers[0].attention
        cache = model.new_cache(dtype=kv_dtype)[0]
        rng = np.random.default_rng([base, rows])
        x = rng.standard_normal((base + rows, model.config.d_model)).astype(np.float32)
        if base:
            attn.prefill(x[:base], np.arange(base), cache)
        out = attn.prefill(x[base:], np.arange(base, base + rows), cache)
        expected = _naive_prefill(attn, x[base:], base, cache)
        assert out.dtype == np.float32
        # Float64 KV: one rounding of the heads to float32, then the
        # float32 output GEMM. Float32 KV: scores of a few hundred carry
        # ~1e-5 of float32 rounding into the exponent (measured worst
        # 1.4e-4; the einsum kernel this replaced read 6e-5 here).
        tol = 1e-6 if kv_dtype is np.float64 else 5e-4
        np.testing.assert_allclose(out, expected, rtol=tol, atol=tol)

    def test_prefill_never_calls_einsum(
        self, model_name, request, tiny_tokenizer, monkeypatch
    ):
        """The non-BLAS c_einsum contractions (~7 GFLOP/s where matmul
        runs ~40) must not come back unnoticed."""

        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum on the prefill path")

        monkeypatch.setattr(np, "einsum", einsum)
        model = request.getfixturevalue(model_name)
        prompt = _prompt(tiny_tokenizer, np.random.default_rng(56), n=T + 9)
        cache = model.new_cache()
        model.prefill(prompt[:T], cache)
        model.prefill(prompt[T:], cache)  # resumed chunk over a cached prefix
        assert cache.seq_len == prompt.size


N_PROMPT = 2 * T + 22


@pytest.mark.parametrize("kv_dtype", [np.float32, np.float64])
@settings(max_examples=20, deadline=None)
@given(cuts=st.frozensets(st.integers(1, N_PROMPT - 1), max_size=12))
@example(cuts=frozenset())  # one chunk: the identical call
@example(cuts=frozenset(range(1, N_PROMPT)))  # every chunk one token
@example(cuts=frozenset({1, T - 1, T, T + 1, N_PROMPT - 1}))
def test_any_chunking_of_a_prompt_prefills_the_same(
    cuts, kv_dtype, tiny_gqa_model, tiny_tokenizer
):
    """Chunked == unchunked prefill is a token-stream contract: the
    next-token argmax is equal for every chunking, values agree within the
    tolerance ``test_prefill_chunked_matches_one_shot`` uses."""
    model = tiny_gqa_model
    prompt = _prompt(tiny_tokenizer, np.random.default_rng(57), n=N_PROMPT)
    one_shot = model.new_cache(dtype=kv_dtype)
    expected = model.prefill(prompt, one_shot)
    chunked = model.new_cache(dtype=kv_dtype)
    for chunk in np.split(prompt, sorted(cuts)):
        logits = model.prefill(chunk, chunked)
    assert int(np.argmax(logits)) == int(np.argmax(expected))
    np.testing.assert_allclose(logits, expected, rtol=1e-4, atol=1e-5)
    for want, got in zip(one_shot.layers, chunked.layers):
        np.testing.assert_allclose(got.keys, want.keys, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-4, atol=1e-5)
    if not cuts:
        np.testing.assert_array_equal(logits, expected)
