"""Attention computation for MHA / GQA / MQA / MLA with KV cache and sparsity.

Single-sequence (batch=1) functional implementation. Prefill uses chunked
causal attention (flash-attention-style row blocks) so long contexts never
materialize a full seq x seq weight matrix. Decode supports three selection
modes, matching the paper's retrieval granularities:

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

from repro.kvcache.cache import LayerKVCache
from repro.models.config import AttentionKind, ModelConfig
from repro.models.weights import LayerWeights
from repro.tensor.ops import linear, linear_rows, softmax
from repro.tensor.rope import RotaryEmbedding

# Query rows per prefill attention tile. A tile computes, then masks, the
# upper triangle of its rows x rows diagonal block, so a narrow tile wastes
# fewer flops and holds a smaller score buffer; a wide one runs larger
# GEMMs and pays fewer numpy dispatches. Measured on the bench model (8 q
# heads over 4 kv heads, dim 64, float64 KV, 1 BLAS thread, best of 9
# interleaved) at tiles 32 / 64 / 128 / 256: a 160-token prompt 1.5 / 1.5 /
# 2.6 / 2.8 ms, 448 tokens 11.3 / 12.1 / 13.3 / 16.6 ms, 1536 tokens in
# 256-token chunks 121 / 120 / 121 / 132 ms. 64 is within 10% of the best
# on every shape the benchmark runs (32 is slightly ahead on short
# prompts, behind on long ones); 256 is worst everywhere.
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
        # Reused backing store for speculative-verify gather buffers: a
        # verify wave stacks (k+1) rows per session, and allocating those
        # multi-MB K/V temporaries fresh every layer-step pushes glibc
        # past its mmap threshold — every np.take then page-faults its
        # way through never-touched pages. One growing scratch keeps the
        # pages warm. (See _attend_rows_kv; values are fully overwritten
        # before every use, so reuse cannot leak state across steps.)
        self._spec_kv_scratch: np.ndarray | None = None
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
        # repro: allow(row-fused-matmul): MLA runs per-session in every
        # decode mode (batched falls back per session), so this GEMM's
        # shapes are mode-invariant and the reduction order never forks.
        c = x @ self.layer.w_dkv.T
        return c[None, :, :]

    def _mla_expand(
        self, latents: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up-project latents (n, latent) to per-head K and V (heads, n, dim)."""
        cfg = self.config
        n = latents.shape[0]
        # repro: allow(row-fused-matmul): per-session MLA up-projection;
        # n is the selected-token count, identical across decode modes.
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
        self, x: np.ndarray, positions: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        """Full causal attention over the prompt; appends to ``cache``.

        ``x`` is (seq, d_model); returns the attention output (seq, d_model).
        """
        cfg = self.config
        q = self._project_q(x, positions)
        if cfg.attention is AttentionKind.MLA:
            latents = self.project_latent(x)
            cache.append(latents[None, :, :, :], latents[None, :, :, :])
            all_latents = cache.keys[0, 0]  # (total, latent)
            k, v = self._mla_expand(all_latents, np.arange(all_latents.shape[0]))
        else:
            k, v = self.project_kv(x, positions)
            cache.append(k[None], v[None])
            k = cache.keys[0]
            v = cache.values[0]

        base = len(cache) - x.shape[0]  # cache offset of this prompt chunk
        return self._chunked_causal(q, k, v, base)

    def _chunked_causal(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, base: int
    ) -> np.ndarray:
        """Causal attention of q rows (at cache positions base..) over k/v.

        One row tile at a time: scores by a batched GEMM with K broadcast
        over the GQA group axis, the causal mask written only into the
        tile's diagonal block (every key left of it is visible to every
        row of the tile), :func:`repro.tensor.ops.softmax`'s op sequence
        (max, subtract, exp, sum, divide) run in place on the score
        buffer, and a second batched GEMM against V stored straight into
        the output.

        Exactness. Chunked == unchunked prefill is an identical
        *token-stream* contract, pinned by the serving tests — not a
        bit-identical-values one: ``linear``'s multi-row GEMMs already
        move the last float32 ulp with the chunk size (see
        :meth:`TransformerLM.prefill_chunked`). This kernel adds no
        coarser drift. Float64 KV (the default): scores, softmax and the
        V contraction run in float64, a masked entry is an exact zero,
        and the only rounding to float32 is the store into ``out``.
        Float32 KV: the whole tile runs in float32 and sgemm's blocking
        moves the last ulp with the tile's key count, the same order of
        drift as the projections'.
        """
        cfg = self.config
        n_kv = k.shape[0]
        group = cfg.n_q_heads // n_kv
        seq = q.shape[1]
        q_g = q.reshape(n_kv, group, seq, cfg.head_dim)
        k_t = k.transpose(0, 2, 1)[:, None]  # (Hkv, 1, dim, total)
        v_b = v[:, None]  # (Hkv, 1, total, dim)
        out = np.empty((n_kv, group, seq, cfg.head_dim), dtype=q.dtype)
        for start in range(0, seq, PREFILL_TILE):
            end = min(start + PREFILL_TILE, seq)
            rows = end - start
            first = base + start  # cache position of the tile's first row
            limit = base + end  # keys visible to the tile's last row
            # repro: allow(row-fused-matmul): prefill exactness is a
            # token-stream contract (docstring): one GEMM per (kv head,
            # group member) slice, float64 end to end under float64 KV
            # and rounded to float32 once, so chunk and tile boundaries
            # move nothing coarser than linear's own last-ulp drift.
            scores = np.matmul(q_g[:, :, start:end], k_t[..., :limit])
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
            np.matmul(scores, v_b[:, :, :limit], out=out[:, :, start:end])
        flat = out.transpose(2, 0, 1, 3).reshape(seq, cfg.n_q_heads * cfg.head_dim)
        return linear(flat, self.layer.wo)

    # ---- decode ----------------------------------------------------------------

    def append_token(
        self, x_token: np.ndarray, position: int, cache: LayerKVCache
    ) -> None:
        """Project and append one new token's KV (or latent) to the cache."""
        cfg = self.config
        x = x_token[None, :]
        if cfg.attention is AttentionKind.MLA:
            latents = self.project_latent(x)
            cache.append(latents[None], latents[None])
        else:
            k, v = self.project_kv(x, np.array([position]))
            cache.append(k[None], v[None])

    def decode(
        self,
        x_token: np.ndarray,
        position: int,
        cache: LayerKVCache,
        selection: np.ndarray | None = None,
        capture_weights: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One decode step. The current token must already be appended.

        Returns (attn_output (d_model,), weights or None). Captured weights
        are (n_q_heads, kv) over the attended set; with selection they are
        scattered back to full cache length so analyses can compare policies.
        """
        cfg = self.config
        # (Hq, dim)
        q = self._project_q(x_token[None, :], np.array([position]))[:, 0, :]

        if selection is None:
            token_indices = np.arange(len(cache))
            per_head = False
        else:
            selection = np.asarray(selection)
            per_head = selection.ndim == 2
            token_indices = selection

        if cfg.attention is AttentionKind.MLA:
            out_heads, weights = self._attend_mla(q, cache, token_indices, per_head)
        else:
            out_heads, weights = self._attend_kv(q, cache, token_indices, per_head)
        flat = out_heads.reshape(cfg.n_q_heads * cfg.head_dim)
        out = linear(flat, self.layer.wo)

        if not capture_weights:
            return out, None
        full = np.zeros((cfg.n_q_heads, len(cache)), dtype=q.dtype)
        if per_head:
            group = cfg.group_size
            for kv_head in range(token_indices.shape[0]):
                for g in range(group):
                    qh = kv_head * group + g
                    full[qh, token_indices[kv_head]] = weights[qh]
        else:
            full[:, token_indices] = weights
        return out, full

    def _attend_kv(
        self,
        q: np.ndarray,
        cache: LayerKVCache,
        token_indices: np.ndarray,
        per_head: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-head attention outputs (Hq, dim) before the output projection."""
        cfg = self.config
        group = cfg.group_size
        keys = cache.keys[0]  # (Hkv, len, dim)
        values = cache.values[0]
        out_heads = np.empty((cfg.n_q_heads, cfg.head_dim), dtype=q.dtype)
        weights_list = []
        for kv_head in range(cfg.n_kv_heads):
            idx = token_indices[kv_head] if per_head else token_indices
            k_sel = keys[kv_head, idx]  # (k, dim)
            v_sel = values[kv_head, idx]
            q_group = q[kv_head * group : (kv_head + 1) * group]  # (group, dim)
            # repro: allow(row-fused-matmul): per-kv-head score/output
            # GEMMs; (group, k) shapes depend only on config and the
            # policy's selection, both mode-invariant (PR 3 argument).
            scores = (q_group @ k_sel.T) * self._scale
            w = softmax(scores, axis=-1)
            # repro: allow(row-fused-matmul): same per-kv-head slice shape.
            out_heads[kv_head * group : (kv_head + 1) * group] = w @ v_sel
            weights_list.append(w)
        weights = np.concatenate(weights_list, axis=0)
        return out_heads, weights

    def _attend_mla(
        self,
        q: np.ndarray,
        cache: LayerKVCache,
        token_indices: np.ndarray,
        per_head: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-head attention outputs (Hq, dim) before the output projection."""
        cfg = self.config
        latents = cache.keys[0, 0]  # (len, latent)
        out_heads = np.empty((cfg.n_q_heads, cfg.head_dim), dtype=q.dtype)
        weights_rows = []
        for head in range(cfg.n_q_heads):
            idx = token_indices[head] if per_head else token_indices
            c_sel = latents[idx]
            k_all, v_all = self._mla_expand(c_sel, np.asarray(idx))
            k_sel = k_all[head]
            v_sel = v_all[head]
            # repro: allow(row-fused-matmul): per-head MLA scores; 1-D q
            # row against (k, dim) keys, shapes mode-invariant.
            scores = (q[head] @ k_sel.T) * self._scale
            w = softmax(scores, axis=-1)
            out_heads[head] = w @ v_sel  # repro: allow(row-fused-matmul)
            weights_rows.append(w)
        weights = np.stack(weights_rows, axis=0)
        return out_heads, weights

    # ---- batched decode (one fused pass over many sessions) --------------------

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

    def append_token_rows(
        self,
        x_rows: np.ndarray,
        positions: np.ndarray,
        caches: list[LayerKVCache],
    ) -> None:
        """Project and append one new token per session, K/V fused into
        single row-batched GEMMs over the shared weights."""
        k, v = self.project_kv_rows(x_rows, positions)
        for j in range(x_rows.shape[0]):
            self.append_projected_row(caches[j], k, v, j)

    def decode_rows(
        self,
        x_rows: np.ndarray,
        positions: np.ndarray,
        caches: list[LayerKVCache],
        selections: list[np.ndarray | None],
        limits: np.ndarray | None = None,
    ) -> np.ndarray:
        """One decode step for ``n`` sessions at once; returns (n, d_model).

        Sessions are grouped by selection shape; each group's gathered KV
        is scored in one batched matmul (a stack of per-slice GEMMs whose
        2-D shapes match the sequential path exactly, keeping every row
        bit-identical to :meth:`decode` on that session alone). The output
        projection runs as a single row-batched GEMM over all sessions.
        MLA sessions fall back to the per-session expansion loop — the
        projections around them still batch.

        ``limits`` (speculative verify) caps each row's full-attention
        view at ``limits[j]`` cache entries: rows of one session verify
        several consecutive positions after all their KV was appended, so
        row ``j`` must attend exactly the prefix a sequential decode at
        its position would have seen. Rows with an explicit selection are
        unaffected — their indices were chosen at select time, when only
        the visible prefix existed.
        """
        cfg = self.config
        n = x_rows.shape[0]
        q = self.project_q_rows(x_rows, positions)  # (n, Hq, dim)
        if cfg.attention is AttentionKind.MLA:
            out_heads = np.empty((n, cfg.n_q_heads, cfg.head_dim), dtype=q.dtype)
            for j in range(n):
                limit = None if limits is None else int(limits[j])
                idx, per_head = self._selection_indices(
                    selections[j], caches[j], limit
                )
                out_heads[j], _ = self._attend_mla(q[j], caches[j], idx, per_head)
        else:
            out_heads = self._attend_rows_kv(q, caches, selections, limits)
        flat = out_heads.reshape(n, cfg.n_q_heads * cfg.head_dim)
        return linear_rows(flat, self.layer.wo)

    @staticmethod
    def _selection_indices(
        selection: np.ndarray | None,
        cache: LayerKVCache,
        limit: int | None = None,
    ) -> tuple[np.ndarray, bool]:
        if selection is None:
            return np.arange(len(cache) if limit is None else limit), False
        selection = np.asarray(selection)
        return selection, selection.ndim == 2

    def _attend_rows_kv(
        self,
        q: np.ndarray,
        caches: list[LayerKVCache],
        selections: list[np.ndarray | None],
        limits: np.ndarray | None = None,
    ) -> np.ndarray:
        """Grouped-by-selection-shape attention; returns (n, Hq, dim)."""
        cfg = self.config
        group = cfg.group_size
        n = q.shape[0]
        q_g = q.reshape(n, cfg.n_kv_heads, group, cfg.head_dim)
        out = np.empty((n, cfg.n_kv_heads, group, cfg.head_dim), dtype=q.dtype)
        if limits is not None and all(s is None for s in selections):
            # Speculative verify over dense rows: every row attends a
            # causal prefix of its own cache, so instead of copying each
            # prefix into a stacked buffer we matmul straight against a
            # view of the cache storage. The per-kv-head 2-D GEMM slices
            # have exactly the (group, width) shapes of the sequential
            # decode at that position, over identical values — the copy
            # was pure memory traffic.
            for j in range(n):
                width = int(limits[j])
                k = caches[j].keys[0, :, :width]
                v = caches[j].values[0, :, :width]
                # repro: allow(row-fused-matmul): 3-D matmul = one GEMM
                # per kv-head slice; per-slice reduction shapes match
                # the sequential path exactly (dense verify rows).
                scores = np.matmul(q_g[j], k.transpose(0, 2, 1)) * self._scale
                w = softmax(scores, axis=-1)
                out[j] = np.matmul(w, v)  # repro: allow(row-fused-matmul)
            return out.reshape(n, cfg.n_q_heads, cfg.head_dim)
        # Rows stack when they attend the same number of entries; a row
        # with a selection (1-D or head-level alike) gathers, a full row
        # copies its visible prefix.
        buckets: dict[tuple[bool, int], list[int]] = {}
        for j, selection in enumerate(selections):
            if selection is None:
                width = len(caches[j]) if limits is None else int(limits[j])
            else:
                width = np.shape(selection)[-1]
            buckets.setdefault((selection is not None, width), []).append(j)
        kv_dtype = caches[0].keys.dtype
        for (selected, width), members in buckets.items():
            g = len(members)
            # Gather straight into the stacked buffers — one copy, not a
            # per-session temporary plus a stack copy. Verify waves carve
            # the buffers out of the persistent scratch (see __init__) so
            # their (k+1)-fold size never churns the allocator; ordinary
            # decode keeps plain allocations.
            shape = (g, cfg.n_kv_heads, width, cfg.head_dim)
            if limits is not None:
                count = int(np.prod(shape))
                scratch = self._spec_kv_scratch
                if (
                    scratch is None
                    or scratch.size < 2 * count
                    or scratch.dtype != kv_dtype
                ):
                    scratch = np.empty(2 * count, dtype=kv_dtype)
                    self._spec_kv_scratch = scratch
                k = scratch[:count].reshape(shape)
                v = scratch[count : 2 * count].reshape(shape)
            else:
                k = np.empty(shape, dtype=kv_dtype)
                v = np.empty_like(k)
            for gi, j in enumerate(members):
                if selected:
                    caches[j].gather_into(selections[j], k[gi], v[gi])
                else:
                    caches[j].copy_kv_into(k[gi], v[gi], limit=width)
            whole_batch = g == n  # skip fancy-index copies for one bucket
            qg = q_g if whole_batch else q_g[members]  # (g, Hkv, group, dim)
            # repro: allow(row-fused-matmul): 4-D matmul dispatches one
            # GEMM per (session, kv-head) slice — the per-slice shapes
            # equal the sequential per-session scores, so reduction
            # order (and therefore every bit) matches (PR 3 argument).
            scores = np.matmul(qg, k.transpose(0, 1, 3, 2)) * self._scale
            w = softmax(scores, axis=-1)
            if whole_batch:
                out[:] = np.matmul(w, v)  # repro: allow(row-fused-matmul)
            else:
                out[members] = np.matmul(w, v)  # repro: allow(row-fused-matmul)
        return out.reshape(n, cfg.n_q_heads, cfg.head_dim)
