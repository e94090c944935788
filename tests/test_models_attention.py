"""Tests for the attention module's sparse-decode paths.

The correctness contract behind every accuracy experiment: decoding with a
selection that covers the whole cache must equal full attention, for every
attention family and for both 1-D (shared) and 2-D (per-head) selections.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.attention import PREFILL_TILE
from repro.models.config import AttentionKind
from repro.tensor.ops import linear, linear_rows


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

    @pytest.mark.parametrize(
        "model_name", ["tiny_gqa_model", "tiny_mha_model", "tiny_mla_model"]
    )
    def test_capture_attention_shapes(
        self, model_name, request, tiny_tokenizer, monkeypatch
    ):
        """Captured weights come from the served kernel: per layer, the
        float64 oracle's softmax rows stored in float32."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        rng = np.random.default_rng(55)
        prompt = _prompt(tiny_tokenizer, rng)
        cache = model.new_cache()
        model.prefill(prompt, cache)
        with pytest.raises(ValueError, match="full attention"):
            model.decode_step(
                5, cache, policy=_FixedSelection(np.arange(8)),
                capture_attention=True,
            )
        inputs = []
        for layer in model.layers:
            attn = layer.attention

            def spy(x_rows, positions, caches, *args, attn=attn, run=attn.decode_rows):
                inputs.append((attn, x_rows, positions, caches))
                return run(x_rows, positions, caches, *args)

            monkeypatch.setattr(attn, "decode_rows", spy)
        _, _, captured = model.decode_step(5, cache, capture_attention=True)
        assert len(captured) == len(inputs) == cfg.n_layers
        for weights, (attn, x_rows, positions, caches) in zip(captured, inputs):
            assert weights.dtype == np.float32
            assert weights.shape == (cfg.n_q_heads, cache.seq_len)
            _, want = _oracle_decode_rows(
                attn, x_rows, positions, caches, [None], None
            )
            np.testing.assert_array_equal(weights, want[0].astype(np.float32))


@pytest.mark.parametrize("model_name", MODELS)
class TestDecodeRowsMixedWave:
    def test_mixed_wave_equals_oracle(self, model_name, request, tiny_tokenizer):
        """Full, 1-D and head-level rows of different widths in one wave
        (two of them sharing a width, so a 1-D and a head-level row stack
        in one bucket): every row is bit-equal to the float64 oracle."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        attn = model.layers[0].attention
        sel_heads = _selection_heads(cfg)
        rng = np.random.default_rng(77)
        lengths = [40, 33, 52, 40, 47, 36]
        shapes = [None, None, (5,), (9,), (sel_heads, 9), (sel_heads, 12)]

        caches, selections = [], []
        for length, shape in zip(lengths, shapes):
            cache = model.new_cache()
            model.prefill(_prompt(tiny_tokenizer, rng, n=length), cache)
            caches.append(cache[0])
            # Indices reach `length`: the decoded token is appended first.
            selections.append(
                None if shape is None else rng.integers(0, length + 1, size=shape)
            )
        positions = np.array(lengths)
        x_rows = rng.standard_normal((len(lengths), cfg.d_model)).astype(np.float32)

        k, v = attn.project_kv_rows(x_rows, positions)
        for j, cache in enumerate(caches):
            attn.append_projected_row(cache, k, v, j)
        out = attn.decode_rows(x_rows, positions, caches, selections)
        want, _ = _oracle_decode_rows(
            attn, x_rows, positions, caches, selections, None
        )
        np.testing.assert_array_equal(out, want)
        with pytest.raises(ValueError, match="dense rows only"):
            attn.decode_rows(x_rows, positions, caches, selections, None, [])


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
    k, v = _float64_kv(attn, cache)
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


def _float64_kv(attn, cache):
    """The cache's K/V (MLA: expanded latents) upcast to float64, shaped
    (heads, len, dim): what every attention reader must compute on."""
    if attn.config.attention is AttentionKind.MLA:
        latents = cache.keys[0, 0].astype(np.float64)
        return attn._mla_expand(latents, np.arange(len(cache)))
    return cache.keys[0].astype(np.float64), cache.values[0].astype(np.float64)


def _oracle_prefill(attn, x, base, cache, first_output=0):
    """Straight-line float64 prefill over the float32-stored ``cache``:
    one 2-D GEMM per (q head, tile) against the tile's whole visible
    prefix, the diagonal block masked, softmax, one 2-D GEMM against V,
    a single rounding of each head row to float32, the output
    projection. Tiles before the one holding ``first_output`` are zero
    rows."""
    cfg = attn.config
    seq = x.shape[0]
    q = attn._project_q(x, np.arange(base, base + seq))
    k, v = _float64_kv(attn, cache)
    group = cfg.n_q_heads // k.shape[0]
    heads = np.zeros((cfg.n_q_heads, seq, cfg.head_dim), dtype=np.float32)
    for h in range(cfg.n_q_heads):
        k_h, v_h = k[h // group], v[h // group]
        for start in range(first_output // T * T, seq, T):
            end = min(start + T, seq)
            limit = base + end
            scores = (q[h, start:end] @ k_h[:limit].T) * attn._scale
            hidden = np.triu(np.ones((end - start, end - start), dtype=bool), 1)
            diagonal = scores[:, base + start :]
            diagonal[hidden] = -np.inf
            scores = scores - scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            heads[h, start:end] = weights @ v_h[:limit]
    return linear(heads.transpose(1, 0, 2).reshape(seq, -1), attn.layer.wo)


PREFILL_SHAPES = [
    (0, 1),  # a single row
    (T // 2 + 3, 1),  # ... at an unaligned base
    (0, T),  # exactly one tile
    (0, T + 7),  # rows not a multiple of the tile
    (T // 2 + 3, 2 * T + 9),  # unaligned base, three tiles
    (T, 3 * T),  # several whole tiles behind a cached prefix
]


@pytest.mark.parametrize("model_name", MODELS)
class TestPrefillKernel:
    @staticmethod
    def _prefill(model, base, rows, first_output=0):
        attn = model.layers[0].attention
        cache = model.new_cache()[0]
        rng = np.random.default_rng([base, rows])
        x = rng.standard_normal((base + rows, model.config.d_model)).astype(np.float32)
        if base:
            attn.prefill(x[:base], np.arange(base), cache)
        out = attn.prefill(
            x[base:], np.arange(base, base + rows), cache, first_output
        )
        return attn, x[base:], cache, out

    @pytest.mark.parametrize("base,rows", PREFILL_SHAPES)
    def test_prefill_matches_naive_reference(self, model_name, base, rows, request):
        model = request.getfixturevalue(model_name)
        attn, x, cache, out = self._prefill(model, base, rows)
        expected = _naive_prefill(attn, x, base, cache)
        assert out.dtype == np.float32
        # Float64 attention: one rounding of the heads to float32, then
        # the float32 output GEMM.
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("read", ["all", "middle", "last"])
    @pytest.mark.parametrize("base,rows", PREFILL_SHAPES)
    def test_prefill_equals_float64_oracle_over_float32_storage(
        self, model_name, base, rows, read, request
    ):
        """Float32 storage, float64 arithmetic on the rows read: bit for
        bit the straight-line float64 computation on the stored values,
        from the start of ``first_output``'s tile onwards; the rows
        before it are exact zeros."""
        model = request.getfixturevalue(model_name)
        first_output = {"all": 0, "middle": rows // 2, "last": rows - 1}[read]
        # Softmax of far-apart scores underflows by design; overflow or an
        # invalid value would mean unwritten rows reached the arithmetic.
        with np.errstate(all="raise", under="ignore"):
            attn, x, cache, out = self._prefill(model, base, rows, first_output)
            want = _oracle_prefill(attn, x, base, cache, first_output)
        assert cache.keys.dtype == np.float32
        tile = first_output // T * T
        np.testing.assert_array_equal(out[tile:], want[tile:])
        assert not out[:tile].any()

    def test_last_layer_computes_one_tile(self, model_name, request, monkeypatch):
        """A 448-token one-shot prefill: every layer but the last attends
        in seven 64-row tiles per KV head, the last in the one tile holding
        the final row, per KV head. Counted at the two GEMMs each tile
        stores through ``out=`` (scores, then the value contraction), in
        call order: KV head outer, tile inner."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        heads = cfg.n_q_heads if cfg.attention is AttentionKind.MLA else cfg.n_kv_heads
        group = cfg.n_q_heads // heads
        layer_of_call = [None]
        gemms = []
        matmul = np.matmul

        def counting_matmul(*args, **kwargs):
            if "out" in kwargs:
                gemms.append((layer_of_call[0], kwargs["out"].shape))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        for i, layer in enumerate(model.layers):

            def spy(*args, i=i, run=layer.attention.prefill):
                layer_of_call[0] = i
                return run(*args)

            monkeypatch.setattr(layer.attention, "prefill", spy)
        prompt = np.random.default_rng(58).integers(0, 512, size=7 * T)
        model.prefill(prompt, model.new_cache())
        last = cfg.n_layers - 1

        def tile(t):  # the tile's score GEMM, then its value GEMM
            return [(group, T, (t + 1) * T), (group, T, cfg.head_dim)]

        expected = [
            (i, shape)
            for i in range(cfg.n_layers)
            for _ in range(heads)
            for t in (range(7) if i < last else [6])
            for shape in tile(t)
        ]
        assert gemms == expected

    @pytest.mark.parametrize("first_output", ["negative", "past_end"])
    def test_bad_first_output_leaves_cache_untouched(
        self, model_name, first_output, request
    ):
        """A ``first_output`` that is not a row of the chunk raises
        ValueError before any K/V (or latent) reaches the cache."""
        model = request.getfixturevalue(model_name)
        attn = model.layers[0].attention
        cache = model.new_cache()[0]
        rows = T + 36
        x = np.random.default_rng(59).standard_normal((2 * rows, model.config.d_model))
        x = x.astype(np.float32)
        attn.prefill(x[:rows], np.arange(rows), cache)
        keys = cache.keys.copy()
        bad = {"negative": -1, "past_end": rows}[first_output]
        with pytest.raises(ValueError, match="first_output"):
            attn.prefill(x[rows:], np.arange(rows, 2 * rows), cache, bad)
        assert len(cache) == rows
        np.testing.assert_array_equal(cache.keys, keys)

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


@settings(max_examples=20, deadline=None)
@given(cuts=st.frozensets(st.integers(1, N_PROMPT - 1), max_size=12))
@example(cuts=frozenset())  # one chunk: the identical call
@example(cuts=frozenset(range(1, N_PROMPT)))  # every chunk one token
@example(cuts=frozenset({1, T - 1, T, T + 1, N_PROMPT - 1}))
def test_any_chunking_of_a_prompt_prefills_the_same(
    cuts, tiny_gqa_model, tiny_tokenizer
):
    """Chunked == unchunked prefill is a token-stream contract: the
    next-token argmax is equal for every chunking, values agree within the
    tolerance ``test_prefill_chunked_matches_one_shot`` uses."""
    model = tiny_gqa_model
    prompt = _prompt(tiny_tokenizer, np.random.default_rng(57), n=N_PROMPT)
    one_shot = model.new_cache()
    expected = model.prefill(prompt, one_shot)
    chunked = model.new_cache()
    for chunk in np.split(prompt, sorted(cuts)):
        logits = model.prefill(chunk, chunked)
    assert int(np.argmax(logits)) == int(np.argmax(expected))
    np.testing.assert_allclose(logits, expected, rtol=1e-4, atol=1e-5)
    for want, got in zip(one_shot.layers, chunked.layers):
        np.testing.assert_allclose(got.keys, want.keys, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-4, atol=1e-5)
    if not cuts:
        np.testing.assert_array_equal(logits, expected)


def test_late_prefill_chunk_holds_one_head_of_float64_kv(tiny_gqa_model):
    """The last 256-row chunk of a 1,536-token chunked prefill: the
    attention's traced peak is one tile's float64 scores, one KV head's
    float64 K/V and a handful of per-row arrays — not every head's upcast
    K/V plus every head's scores, which is what a kernel that upcasts the
    whole prefix and scores all heads per tile holds (about 20 MB here)."""
    model = tiny_gqa_model
    cfg = model.config
    chunk, total = 256, 1536
    prompt = np.random.default_rng(60).integers(0, cfg.vocab_size, size=total)
    cache = model.new_cache()
    for start in range(0, total - chunk, chunk):
        model.prefill(prompt[start : start + chunk], cache)
    base = total - chunk
    x = model.embed(prompt[base:])
    float64 = np.dtype(np.float64).itemsize
    group = cfg.n_q_heads // cfg.n_kv_heads
    scores = group * T * total * float64
    head_kv = 2 * total * cfg.head_dim * float64
    # q, attention output, K/V projection and output projection rows, all
    # counted at float64 width though most are float32.
    row_width = 2 * cfg.n_q_heads * cfg.head_dim + 2 * cfg.n_kv_heads * cfg.head_dim
    rows = chunk * (row_width + cfg.d_model) * float64
    slack = 1 << 20  # masks, reductions and matmul cast buffers
    tracemalloc.start()
    try:
        model.layers[0].attention.prefill(x, np.arange(base, total), cache[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache[0]) == total
    assert peak < scores + head_kv + rows + slack


def _selection_heads(cfg):
    """Rows of a head-level selection: KV heads, or MLA's query heads."""
    if cfg.attention is AttentionKind.MLA:
        return cfg.n_q_heads
    return cfg.n_kv_heads


def _oracle_mla_head(attn, cache, idx, head):
    """One MLA head's float64 K/V at ``idx``: the stored latents upcast,
    up-projected by ``w_uk``/``w_uv``, keys rotated at ``idx +
    rope_key_offset`` when the head runs RoPE."""
    cfg = attn.config
    latents = cache.keys[0, 0, idx].astype(np.float64)
    shape = (len(idx), cfg.n_q_heads, cfg.head_dim)
    k = (latents @ attn.layer.w_uk.T).reshape(shape)[:, head]
    v = (latents @ attn.layer.w_uv.T).reshape(shape)[:, head]
    mask = attn.layer.rope_mask
    if mask is None or mask[head]:
        k = attn.rope.apply(k, np.asarray(idx) + attn.layer.rope_key_offset)
    return k, v


def _oracle_decode_rows(attn, x_rows, positions, caches, selections, limits):
    """Straight-line float64 decode: per row and kv head (MLA: per query
    head over up-projected latents), the selected (or the first
    ``limits[j]``) float32 rows read by fancy indexing and upcast, a score
    GEMM, softmax, a GEMM against V, one rounding of the head row to
    float32, then the output projection. Returns that output and each
    row's float64 softmax rows, (n_q_heads, width)."""
    cfg = attn.config
    mla = cfg.attention is AttentionKind.MLA
    group = 1 if mla else cfg.group_size
    q = attn.project_q_rows(x_rows, positions)
    heads = np.empty((len(caches), cfg.n_q_heads, cfg.head_dim), dtype=np.float32)
    softmax_rows = []
    for j, (cache, selection) in enumerate(zip(caches, selections)):
        width = len(cache) if limits is None else int(limits[j])
        row_weights = []
        for h in range(_selection_heads(cfg)):
            if selection is None:
                idx = np.arange(width)
            else:
                idx = selection[h] if selection.ndim == 2 else selection
            if mla:
                rows = h
                k, v = _oracle_mla_head(attn, cache, idx, h)
            else:
                rows = slice(h * group, (h + 1) * group)
                k = cache.keys[0, h, idx].astype(np.float64)
                v = cache.values[0, h, idx].astype(np.float64)
            scores = (q[j, rows] @ k.T) * attn._scale
            scores = scores - scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            heads[j, rows] = weights @ v
            row_weights.append(weights.reshape(group, -1))
        softmax_rows.append(np.concatenate(row_weights))
    out = linear_rows(heads.reshape(len(caches), -1), attn.layer.wo)
    return out, softmax_rows


@pytest.mark.parametrize("model_name", MODELS)
class TestDecodeRowsFloat64Oracle:
    """Every decode_rows path reads float32 storage and computes in
    float64: bit for bit the straight-line oracle above."""

    @staticmethod
    def _caches(model, tokenizer, rng, lengths):
        caches = []
        for length in lengths:
            cache = model.new_cache()
            model.prefill(_prompt(tokenizer, rng, n=length), cache)
            caches.append(cache[0])
        return caches

    @pytest.mark.parametrize("level", ["head", "batch"])
    def test_selected_rows_equal_oracle(
        self, model_name, level, request, tiny_tokenizer
    ):
        model = request.getfixturevalue(model_name)
        cfg = model.config
        attn = model.layers[0].attention
        rng = np.random.default_rng(81)
        lengths = [44, 37, 52, 40]
        caches = self._caches(model, tiny_tokenizer, rng, lengths)
        widths = [9, 9, 13, 9]  # two buckets, one of three rows
        selections = [
            rng.integers(0, length, size=(_selection_heads(cfg), width))
            if level == "head"
            else rng.integers(0, length, size=width)
            for length, width in zip(lengths, widths)
        ]
        positions = np.array(lengths) - 1
        x_rows = rng.standard_normal((len(lengths), cfg.d_model)).astype(np.float32)
        out = attn.decode_rows(x_rows, positions, caches, selections)
        want, _ = _oracle_decode_rows(
            attn, x_rows, positions, caches, selections, None
        )
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("capped", [True, False])
    def test_dense_rows_equal_oracle(
        self, model_name, capped, request, tiny_tokenizer
    ):
        """Dense rows, captured weights included. Capped: speculative
        verify, consecutive rows of one session attend growing causal
        prefixes of a shared cache. Uncapped: rows of one width stack in
        one bucket."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        attn = model.layers[0].attention
        rng = np.random.default_rng(82)
        first, second = self._caches(model, tiny_tokenizer, rng, [48, 35])
        caches = [first, first, first, second, second]
        limits = np.array([46, 47, 48, 34, 35]) if capped else None
        positions = np.array([45, 46, 47, 33, 34])
        x_rows = rng.standard_normal((len(caches), cfg.d_model)).astype(np.float32)
        selections = [None] * len(caches)
        captured = []
        out = attn.decode_rows(
            x_rows, positions, caches, selections, limits, captured
        )
        want, softmax_rows = _oracle_decode_rows(
            attn, x_rows, positions, caches, selections, limits
        )
        np.testing.assert_array_equal(out, want)
        assert len(captured) == len(caches)
        for got, rows in zip(captured, softmax_rows):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, rows.astype(np.float32))

    @pytest.mark.parametrize("wave", ["head", "batch", "mixed"])
    def test_selected_verify_rows_equal_oracle(
        self, model_name, wave, request, tiny_tokenizer
    ):
        """Speculative verify with selections: three consecutive rows of
        one session and two of a second, each under its own ``limits``
        entry. "mixed" makes the first session's first two rows and the
        second session's last row dense, beside a head-level and a
        batch-level row, so dense prefixes of a shared cache and gathers
        meet in one wave."""
        model = request.getfixturevalue(model_name)
        cfg = model.config
        attn = model.layers[0].attention
        rng = np.random.default_rng(83)
        first, second = self._caches(model, tiny_tokenizer, rng, [48, 35])
        caches = [first, first, first, second, second]
        limits = np.array([46, 47, 48, 34, 35])
        positions = limits - 1
        widths = [9, 9, 13, 9, 11]
        levels = {
            "head": ["head"] * 5,
            "batch": ["batch"] * 5,
            "mixed": [None, None, "head", "batch", None],
        }[wave]
        selections = []
        for level, limit, width in zip(levels, limits, widths):
            shape = (_selection_heads(cfg), width) if level == "head" else width
            # A verify row selects among the entries visible at its position.
            selections.append(
                None if level is None else rng.integers(0, limit, size=shape)
            )
        x_rows = rng.standard_normal((len(caches), cfg.d_model)).astype(np.float32)
        out = attn.decode_rows(x_rows, positions, caches, selections, limits)
        want, _ = _oracle_decode_rows(
            attn, x_rows, positions, caches, selections, limits
        )
        np.testing.assert_array_equal(out, want)


def test_verify_wave_holds_one_row_of_float64_kv(tiny_gqa_model):
    """A 40-row speculative verify wave (eight sessions, five rows each)
    of head-level selections at width 129: the decode kernel's traced peak
    is one row's float64 K/V, the float32 staging buffer and a handful of
    per-row arrays — not the wave's stacked K/V (about 21 MB here) — and
    the module keeps no wave-sized array once the call returns."""
    model = tiny_gqa_model
    cfg = model.config
    attn = model.layers[0].attention
    sessions, verify_rows, length, width = 8, 5, 160, 129
    rng = np.random.default_rng(84)
    caches, selections, limits = [], [], []
    for _ in range(sessions):
        cache = model.new_cache()[0]
        x = rng.standard_normal((length, cfg.d_model)).astype(np.float32)
        attn.prefill(x, np.arange(length), cache)
        for limit in range(length - verify_rows + 1, length + 1):
            caches.append(cache)
            limits.append(limit)
            selections.append(rng.integers(0, limit, size=(cfg.n_kv_heads, width)))
    rows = len(caches)
    limits = np.array(limits)
    x_rows = rng.standard_normal((rows, cfg.d_model)).astype(np.float32)
    float64 = np.dtype(np.float64).itemsize
    row_kv = 2 * cfg.n_kv_heads * width * cfg.head_dim * float64
    staging = cfg.n_kv_heads * width * cfg.head_dim * np.dtype(np.float32).itemsize
    # q, attention output and output-projection rows, all counted at
    # float64 width though most are float32.
    per_row = rows * (3 * cfg.n_q_heads * cfg.head_dim + cfg.d_model) * float64
    # One row's scores and softmax temporaries, RoPE temporaries and
    # matmul cast buffers.
    slack = 1 << 20
    tracemalloc.start()
    try:
        attn.decode_rows(x_rows, limits - 1, caches, selections, limits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < row_kv + staging + per_row + slack
    for name, value in vars(attn).items():
        assert not isinstance(value, np.ndarray) or value.nbytes < row_kv, name
