"""Attention computation for MHA / GQA / MQA / MLA with KV cache and sparsity.

Functional numpy implementation over per-session caches. Prefill uses
chunked causal attention (flash-attention-style row blocks) so long
contexts never materialize a full seq x seq weight matrix. It works one
KV head at a time — that head's K/V upcast to float64, one score buffer
reused by every tile — and computes only the rows whose output is read.
When nobody reads the prefill's logits (the server's sparse-first
prefill of ``prompt[:-1]``, ``generate``'s sparse path, prepared prompts,
the distillation teacher), the model's last layer runs only its K/V (or
latent) projection and cache append: no q projection, attention, ``wo``,
FFN, final norm or LM head (``first_output=None``). A caller that does
read logits (a 1-token prompt, ``generate``'s HF-semantics path) gets a
last layer that attends for the tile holding the final prompt row alone
(see :meth:`AttentionModule._chunked_causal`). Decode has one kernel,
:meth:`AttentionModule.decode_rows`, which runs a wave of rows — the
server's decode and verify waves, and a single session's step as a wave of
one. It works one row at a time, gather to output, through one
row-sized float64 K/V buffer that the next row reuses while it is still
cache-hot, so a row's bits never depend on the wave around it. The tests
pin it to straight-line float64 oracles. Each row picks one of three
selection modes, matching the paper's retrieval granularities:

- ``selection=None``: full attention over the cache,
- 1-D indices: one global set of tokens shared by all heads (batch-level),
- 2-D ``(n_kv_heads, k)`` indices: head-level selection (Figure 5's gather).

RoPE is applied per query head according to the layer's ``rope_mask``
(constructed content-matching heads run NoPE), and keys may be pre-rotated by
``rope_key_offset`` positions (how the builder realizes a previous-token
head). MLA caches the latent vector and up-projects only the gathered
entries, as in Figure 5(e).
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import KV_DTYPE, LayerKVCache
from repro.models.config import AttentionKind, ModelConfig
from repro.models.weights import LayerWeights
from repro.tensor.ops import linear, linear_rows, softmax
from repro.tensor.rope import RotaryEmbedding

# Query rows per prefill attention tile. A tile computes, then masks, the
# upper triangle of its rows x rows diagonal block, so a narrow tile wastes
# fewer flops and holds a smaller score buffer; a wide one runs larger
# GEMMs and pays fewer numpy dispatches. Measured on the bench model (8 q
# heads over 4 kv heads, dim 64, float32 storage, the KV-head-outer kernel,
# 1 BLAS thread, attention prefill of both layers, best of 9 interleaved;
# 2-core Xeon) at tiles 32 / 64 / 128 / 256: a 160-token prompt 6.6 / 7.0 /
# 7.4 / 9.9 ms, 448 tokens 22.4 / 24.1 / 25.1 / 33.0 ms, 1536 tokens in
# 256-token chunks 171 / 183 / 226 / 294 ms. 32 is 2-12% ahead of 64 on
# every shape (in a second, slower run too) and 256 is worst everywhere.
# 64 stays: the width sets every tile's ``limit`` and softmax length, so
# changing it changes prefill bits.
PREFILL_TILE = 64
# Strictly-upper triangle of a tile's diagonal block: key j of the block
# is hidden from row i when j > i.
_TILE_HIDDEN = np.triu(np.ones((PREFILL_TILE, PREFILL_TILE), dtype=bool), 1)
_TILE_HIDDEN.setflags(write=False)


class AttentionModule:
    """One layer's attention, bound to its weights and the shared RoPE table."""

    def __init__(self, config: ModelConfig, layer: LayerWeights, rope: RotaryEmbedding):
        self.config = config
        self.layer = layer
        self.rope = rope
        self._scale = 1.0 / np.sqrt(config.head_dim)
        # RoPE masks are pure functions of the layer weights; precompute
        # them once instead of rebuilding boolean arrays on every
        # projection of every decode step.
        if layer.rope_mask is not None:
            self._q_mask = np.asarray(layer.rope_mask, dtype=bool)
        else:
            self._q_mask = np.ones(config.n_q_heads, dtype=bool)
        self._q_mask.setflags(write=False)
        if config.attention is AttentionKind.MLA:
            self._kv_mask = self._q_mask
        else:
            # A KV head rotates iff its group's q heads do.
            self._kv_mask = self._q_mask.reshape(
                config.n_kv_heads, config.group_size
            ).any(axis=1)
            self._kv_mask.setflags(write=False)

    # ---- projections --------------------------------------------------------

    def _project_q(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Queries, shape (n_q_heads, seq, head_dim), RoPE applied per mask."""
        cfg = self.config
        q = linear(x, self.layer.wq, self.layer.bq)
        q = q.reshape(x.shape[0], cfg.n_q_heads, cfg.head_dim).transpose(1, 0, 2)
        return self._apply_rope_masked(q, positions, self._q_mask)

    def _apply_rope_masked(
        self, heads: np.ndarray, positions: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Rotate only the heads where ``mask`` is True."""
        if not mask.any():
            return heads
        rotated = self.rope.apply(heads, positions)
        if mask.all():
            return rotated
        out = heads.copy()
        out[mask] = rotated[mask]
        return out

    def project_kv(
        self, x: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """New cache entries for non-MLA attention.

        Returns (k, v), each shaped (n_kv_heads, seq, head_dim); keys are
        rotated at ``positions + rope_key_offset`` for masked heads.
        """
        cfg = self.config
        if cfg.attention is AttentionKind.MLA:
            raise RuntimeError("MLA caches latents; use project_latent")
        k = linear(x, self.layer.wk, self.layer.bk)
        v = linear(x, self.layer.wv)
        k = k.reshape(x.shape[0], cfg.n_kv_heads, cfg.head_dim).transpose(1, 0, 2)
        v = v.reshape(x.shape[0], cfg.n_kv_heads, cfg.head_dim).transpose(1, 0, 2)
        key_positions = positions + self.layer.rope_key_offset
        k = self._apply_rope_masked(k, key_positions, self._kv_mask)
        return k, v

    def project_latent(self, x: np.ndarray) -> np.ndarray:
        """MLA latent cache entries, shape (1, seq, latent)."""
        # repro: allow(row-fused-matmul): prefill only (decode projects
        # through project_kv_rows); prefill exactness is a token-stream
        # contract (see _chunked_causal).
        c = x @ self.layer.w_dkv.T
        return c[None, :, :]

    def _mla_expand(
        self, latents: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up-project latents (n, latent) to per-head K and V (heads, n, dim)."""
        cfg = self.config
        n = latents.shape[0]
        # repro: allow(row-fused-matmul): per-row MLA up-projection;
        # n is the row's selected-token count, independent of the wave.
        k = (latents @ self.layer.w_uk.T).reshape(n, cfg.n_q_heads, cfg.head_dim)
        # repro: allow(row-fused-matmul): same up-projection, value side.
        v = (latents @ self.layer.w_uv.T).reshape(n, cfg.n_q_heads, cfg.head_dim)
        k = k.transpose(1, 0, 2)
        v = v.transpose(1, 0, 2)
        key_positions = positions + self.layer.rope_key_offset
        k = self._apply_rope_masked(k, key_positions, self._kv_mask)
        return k, v

    def selection_queries(self, x_token: np.ndarray, position: int) -> np.ndarray:
        """Per-selection-head queries for retrieval scoring.

        Returns (n_kv_heads, head_dim) — query heads group-averaged onto
        their KV head, which is how Quest-style methods score a GQA cache.
        For MLA (one latent cache, per-head selection) returns the raw
        (n_q_heads, head_dim) queries.
        """
        q = self._project_q(x_token[None, :], np.array([position]))[:, 0, :]
        cfg = self.config
        if cfg.attention is AttentionKind.MLA:
            return q
        return q.reshape(cfg.n_kv_heads, cfg.group_size, cfg.head_dim).mean(axis=1)

    # ---- prefill -------------------------------------------------------------

    def prefill(
        self,
        x: np.ndarray,
        positions: np.ndarray,
        cache: LayerKVCache,
        first_output: int | None = 0,
    ) -> np.ndarray | None:
        """Causal attention over the prompt; appends to ``cache``.

        ``x`` is (seq, d_model); returns the attention output (seq, d_model).
        The kernel reads the float32 storage itself and upcasts one KV
        head's visible prefix at a time, so attention runs in float64 over
        the stored values without a float64 copy of every head (MLA
        expands its latents to float64 heads first).

        ``first_output`` is the first row whose output the caller reads.
        Attention runs from the start of that row's tile onwards; earlier
        rows come back as exact zeros. The K/V (or latent) projection and
        append, the q projection and the output projection still span
        every row, so the cache and the rows computed are bit-identical to
        ``first_output=0``. ``None`` means no row is read (the last layer
        of a prefill whose logits nobody reads): the K/V (or latent) rows
        are projected and appended and nothing else runs — no q
        projection, no attention tile, no ``wo`` — and ``None`` is
        returned. Any other value must name a row of ``x``: anything else
        raises ``ValueError`` before the cache is touched.
        """
        seq = x.shape[0]
        if first_output is not None and not 0 <= first_output < seq:
            raise ValueError(
                f"first_output={first_output} is not a row of the {seq}-row prompt"
            )
        self._append_prompt_kv(x, positions, cache)
        if first_output is None:
            return None
        q = self._project_q(x, positions)
        if self.config.attention is AttentionKind.MLA:
            all_latents = cache.keys[0, 0].astype(np.float64)  # (total, latent)
            k, v = self._mla_expand(all_latents, np.arange(all_latents.shape[0]))
        else:
            k, v = cache.keys[0], cache.values[0]  # float32 storage views
        base = len(cache) - seq  # cache offset of this prompt chunk
        return self._chunked_causal(q, k, v, base, first_output)

    def _append_prompt_kv(
        self, x: np.ndarray, positions: np.ndarray, cache: LayerKVCache
    ) -> None:
        """Project a prompt chunk's K/V (MLA: latents) and append them:
        the one place prefill writes the cache, whether or not the layer
        then attends."""
        if self.config.attention is AttentionKind.MLA:
            latents = self.project_latent(x)
            cache.append(latents[None, :, :, :], latents[None, :, :, :])
        else:
            k, v = self.project_kv(x, positions)
            cache.append(k[None], v[None])

    def _chunked_causal(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        base: int,
        first_output: int = 0,
    ) -> np.ndarray:
        """Causal attention of q rows (at cache positions base..) over k/v.

        KV head outer, row tile inner. One float64 work buffer is
        allocated per call: ``group x PREFILL_TILE x total`` scores (1.5 MB
        at 1,536 keys on the bench model, inside L2) and one head's K and
        V. Each KV head's K and V are copied into it in turn, an upcast
        for float32 storage and a plain copy for MLA's float64 expanded
        heads. Then every row tile of that head runs: scores by a GEMM per
        GQA group member into a view of the score buffer, the causal mask
        written only into the tile's diagonal block (every key left of it
        is visible to every row of the tile),
        :func:`repro.tensor.ops.softmax`'s op sequence (max, subtract, exp,
        sum, divide) run in place on that view, and a second GEMM against V
        stored straight into the output. The working set is one head's K/V
        plus one tile's scores, not every head's.

        Exactness. Chunked == unchunked prefill is an identical
        *token-stream* contract, pinned by the serving tests — not a
        bit-identical-values one: ``linear``'s multi-row GEMMs already
        move the last float32 ulp with the chunk size (see
        :meth:`TransformerLM.prefill_chunked`). This kernel adds no
        coarser drift: K/V are float64 when they meet the scores, so
        scores, softmax and the V contraction run in float64, a masked
        entry is an exact zero, and the only rounding to float32 is the
        store into ``out``. The loop order does not move a bit either:
        heads never mix, each (head, group member, tile) GEMM has the
        ``(rows, dim) x (dim, limit)`` and ``(rows, limit) x (limit,
        dim)`` shapes and operand layouts of a whole-head pass, and the
        softmax reductions run along a contiguous row of the same length.

        Rows read. Tiles wholly before ``first_output`` are skipped and
        their rows written as 0.0 (never left uninitialised: the FFN's
        ``silu`` runs over every row and would overflow on garbage). The
        tile holding ``first_output`` keeps its ``(start, end, limit)``,
        so its GEMM shapes and softmax op sequence — and therefore its
        bits — are those of a full pass. The output projection keeps all
        ``seq`` rows: a GEMM row's result does not depend on the values in
        other rows, but BLAS blocking does depend on the row count, so
        trimming ``wo`` (or the FFN after it) to the computed tile would
        move the last ulp of the rows that are read.
        """
        cfg = self.config
        n_kv, total = k.shape[:2]
        group = cfg.n_q_heads // n_kv
        seq = q.shape[1]
        q_g = q.reshape(n_kv, group, seq, cfg.head_dim)
        out = np.empty((n_kv, group, seq, cfg.head_dim), dtype=q.dtype)
        skip = first_output - first_output % PREFILL_TILE  # tiles not read
        out[:, :, :skip] = 0.0
        # One allocation per call: the tile scores, then one KV head's
        # float64 K and V, copied in head by head. Fresh per-head K/V
        # arrays measured higher peak RSS on the decode-heavy and
        # shared-prefix benchmarks.
        score_size = group * min(PREFILL_TILE, seq) * total
        work = np.empty(score_size + 2 * total * cfg.head_dim)
        score_buffer = work[:score_size]
        head_kv = work[score_size:].reshape(2, total, cfg.head_dim)
        for head in range(n_kv):
            np.copyto(head_kv[0], k[head])
            np.copyto(head_kv[1], v[head])
            k_head, v_head = head_kv
            k_t = k_head.T
            for start in range(skip, seq, PREFILL_TILE):
                end = min(start + PREFILL_TILE, seq)
                rows = end - start
                first = base + start  # cache position of the tile's first row
                limit = base + end  # keys visible to the tile's last row
                scores = score_buffer[: group * rows * limit].reshape(
                    group, rows, limit
                )
                # repro: allow(row-fused-matmul): prefill exactness is a
                # token-stream contract (docstring): one GEMM per group
                # member, float64 end to end and rounded to float32 once,
                # so chunk and tile boundaries move nothing coarser than
                # linear's own last-ulp drift.
                np.matmul(q_g[head, :, start:end], k_t[:, :limit], out=scores)
                scores *= self._scale
                np.copyto(
                    scores[..., first:], -np.inf, where=_TILE_HIDDEN[:rows, :rows]
                )
                scores -= scores.max(axis=-1, keepdims=True)
                np.exp(scores, out=scores)
                scores /= scores.sum(axis=-1, keepdims=True)
                # repro: allow(row-fused-matmul): same slices, value side;
                # masked weights are exact zeros, so the keys a row cannot
                # see add nothing to its sum whatever the tile width.
                np.matmul(scores, v_head[:limit], out=out[head, :, start:end])
        flat = out.transpose(2, 0, 1, 3).reshape(seq, cfg.n_q_heads * cfg.head_dim)
        return linear(flat, self.layer.wo)

    # ---- decode (one pass over a wave of rows, attention row by row) ---------

    def project_q_rows(self, x_rows: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Queries for ``n`` single-token sessions, shape (n, n_q_heads, dim).

        Row ``j`` is bit-identical to ``_project_q(x_rows[j:j+1],
        positions[j:j+1])[:, 0, :]``: the projection goes through
        :func:`linear_rows` (per-row GEMM semantics) and RoPE is a pure
        elementwise rotation with each row's own cos/sin table entries.
        """
        cfg = self.config
        q = linear_rows(x_rows, self.layer.wq, self.layer.bq)
        q = q.reshape(x_rows.shape[0], cfg.n_q_heads, cfg.head_dim).transpose(1, 0, 2)
        q = self._apply_rope_masked(q, np.asarray(positions), self._q_mask)
        return q.transpose(1, 0, 2)

    def project_kv_rows(
        self, x_rows: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """New cache entries for ``n`` single-token rows, fused.

        Non-MLA: returns (k, v) shaped (Hkv, n, dim), keys RoPE-rotated at
        each row's own position. MLA: returns (latents, latents) with
        latents shaped (n, latent) — the latent is both key and value.
        Row ``j`` is bit-identical to :meth:`project_kv` /
        :meth:`project_latent` on that row alone (per-row GEMM slices).
        """
        cfg = self.config
        n = x_rows.shape[0]
        if cfg.attention is AttentionKind.MLA:
            latents = linear_rows(x_rows, self.layer.w_dkv)  # (n, latent)
            return latents, latents
        k = linear_rows(x_rows, self.layer.wk, self.layer.bk)
        v = linear_rows(x_rows, self.layer.wv)
        k = k.reshape(n, cfg.n_kv_heads, cfg.head_dim).transpose(1, 0, 2)
        v = v.reshape(n, cfg.n_kv_heads, cfg.head_dim).transpose(1, 0, 2)
        key_positions = np.asarray(positions) + self.layer.rope_key_offset
        k = self._apply_rope_masked(k, key_positions, self._kv_mask)
        return k, v

    def append_projected_row(
        self, cache: LayerKVCache, k: np.ndarray, v: np.ndarray, row: int
    ) -> None:
        """Append row ``row`` of a :meth:`project_kv_rows` result."""
        if self.config.attention is AttentionKind.MLA:
            entry = k[row][None, None, None, :]
            cache.append(entry, entry)
        else:
            cache.append(k[None, :, row : row + 1, :], v[None, :, row : row + 1, :])

    def decode_rows(
        self,
        x_rows: np.ndarray,
        positions: np.ndarray,
        caches: list[LayerKVCache],
        selections: list[np.ndarray | None],
        limits: np.ndarray | None = None,
        weights: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """The decode kernel: one token for each of ``n`` rows; returns
        (n, d_model). Each row's own KV entry is already in its cache.

        Attention runs one row at a time, from gather to output: the
        row's K/V is gathered (or its dense prefix copied) into one
        float64 buffer sized to the wave's widest row, scored with one
        2-D GEMM per KV head, softmaxed and contracted with V straight
        into the row's output. The next row reuses the buffer while it is
        still cache-hot. Each GEMM has the shapes and operand layouts of
        the row decoded alone, so a row's bits do not depend on the wave
        it rides in (a session decoded alone is a wave of one). The
        projections run as row-batched GEMMs over all rows. MLA rows run
        the per-row expansion loop.

        ``limits`` (speculative verify) caps each row's full-attention
        view at ``limits[j]`` cache entries: rows of one session verify
        several consecutive positions after all their KV was appended, so
        row ``j`` must attend exactly the prefix a sequential decode at
        its position would have seen. A session's consecutive dense rows
        share one copy of their widest prefix. ``limits`` decides what a
        row sees, not how memory is allocated. Rows with an explicit
        selection are unaffected — their indices were chosen at select
        time, when only the visible prefix existed.

        ``weights``, when given, receives each row's softmax weights in
        row order, shaped (n_q_heads, visible entries) and stored in the
        query dtype. Only dense rows are captured: a row with a selection
        raises ``ValueError``.
        """
        cfg = self.config
        n = x_rows.shape[0]
        if weights is not None and any(s is not None for s in selections):
            raise ValueError("attention weights are captured for dense rows only")
        captured: list | None = None if weights is None else [None] * n
        q = self.project_q_rows(x_rows, positions)  # (n, Hq, dim)
        if cfg.attention is AttentionKind.MLA:
            out_heads = np.empty((n, cfg.n_q_heads, cfg.head_dim), dtype=q.dtype)
            for j in range(n):
                width = len(caches[j]) if limits is None else int(limits[j])
                out_heads[j], w = self._attend_mla(
                    q[j], caches[j], selections[j], width
                )
                if captured is not None:
                    captured[j] = w
        else:
            out_heads = self._attend_rows_kv(q, caches, selections, limits, captured)
        if weights is not None:
            weights.extend(
                w.reshape(cfg.n_q_heads, -1).astype(q.dtype) for w in captured
            )
        flat = out_heads.reshape(n, cfg.n_q_heads * cfg.head_dim)
        return linear_rows(flat, self.layer.wo)

    def _attend_mla(
        self,
        q: np.ndarray,
        cache: LayerKVCache,
        selection: np.ndarray | None,
        width: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One MLA row over its selection (dense: the first ``width``
        entries): per-head outputs (Hq, dim) before the output projection,
        and the float64 softmax weights (Hq, k)."""
        cfg = self.config
        latents = cache.keys[0, 0]  # (len, latent)
        selection = np.arange(width) if selection is None else np.asarray(selection)
        out_heads = np.empty((cfg.n_q_heads, cfg.head_dim), dtype=q.dtype)
        weights_rows = []
        for head in range(cfg.n_q_heads):
            idx = selection[head] if selection.ndim == 2 else selection
            c_sel = latents[idx].astype(np.float64)
            k_all, v_all = self._mla_expand(c_sel, np.asarray(idx))
            k_sel = k_all[head]
            v_sel = v_all[head]
            # repro: allow(row-fused-matmul): per-head MLA scores; 1-D q
            # row against (k, dim) keys, shapes independent of the wave.
            scores = (q[head] @ k_sel.T) * self._scale
            w = softmax(scores, axis=-1)
            out_heads[head] = w @ v_sel  # repro: allow(row-fused-matmul)
            weights_rows.append(w)
        weights = np.stack(weights_rows, axis=0)
        return out_heads, weights

    def _attend_rows_kv(
        self,
        q: np.ndarray,
        caches: list[LayerKVCache],
        selections: list[np.ndarray | None],
        limits: np.ndarray | None = None,
        captured: list | None = None,
    ) -> np.ndarray:
        """Row-by-row attention (see :meth:`decode_rows`); returns (n, Hq,
        dim) and, given ``captured``, stores row ``j``'s softmax weights
        there. A selected row gathers into a contiguous ``(2, Hkv, width,
        dim)`` view of the row buffer. A run of consecutive dense rows over
        one cache (a session's rows in a verify wave) copies the run's
        widest prefix once, and each row reads its first ``width`` entries
        of every head.
        """
        cfg = self.config
        n = q.shape[0]
        kv_heads, dim = cfg.n_kv_heads, cfg.head_dim
        q_g = q.reshape(n, kv_heads, cfg.group_size, dim)
        out = np.empty((n, kv_heads, cfg.group_size, dim), dtype=q.dtype)
        widths = [
            np.shape(selection)[-1]
            if selection is not None
            else (len(cache) if limits is None else int(limits[j]))
            for j, (cache, selection) in enumerate(zip(caches, selections))
        ]
        row_size = kv_heads * max(widths, default=0) * dim
        buffer = np.empty(2 * row_size)
        staging = np.empty(row_size, dtype=KV_DTYPE)  # see gather_into

        def row_kv(width: int) -> np.ndarray:
            return buffer[: 2 * kv_heads * width * dim].reshape(
                2, kv_heads, width, dim
            )

        prefix_of = None  # the cache whose dense prefix ``buffer`` holds
        for j, (cache, selection) in enumerate(zip(caches, selections)):
            width = widths[j]
            if selection is not None:
                kv = row_kv(width)
                rows = staging[: kv_heads * width * dim].reshape(kv[0].shape)
                cache.gather_into(selection, kv[0], kv[1], rows)
                prefix_of = None
            else:
                if cache is not prefix_of:
                    end = j + 1
                    while end < n and caches[end] is cache and selections[end] is None:
                        end += 1
                    prefix = row_kv(max(widths[j:end]))
                    cache.copy_kv_into(prefix[0], prefix[1], limit=prefix.shape[2])
                    prefix_of = cache
                kv = prefix[:, :, :width]
            # repro: allow(row-fused-matmul): 3-D matmul = one GEMM per kv
            # head, with the shapes and operand layouts of the row decoded
            # alone, so a row's bits do not depend on the wave around it.
            scores = np.matmul(q_g[j], kv[0].transpose(0, 2, 1)) * self._scale
            w = softmax(scores, axis=-1)
            if captured is not None:
                captured[j] = w
            np.matmul(w, kv[1], out=out[j])  # repro: allow(row-fused-matmul)
        return out.reshape(n, cfg.n_q_heads, dim)
