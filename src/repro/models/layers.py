"""Decoder layer: (norm ->) attention + residual, (norm ->) SwiGLU FFN + residual."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.kvcache.cache import LayerKVCache
from repro.models.attention import AttentionModule
from repro.models.config import ModelConfig
from repro.models.weights import LayerWeights
from repro.tensor.ops import linear, linear_rows, rms_norm, silu
from repro.tensor.rope import RotaryEmbedding


class DecoderLayer:
    """One transformer decoder block."""

    def __init__(
        self, config: ModelConfig, weights: LayerWeights, rope: RotaryEmbedding
    ):
        self.config = config
        self.weights = weights
        self.attention = AttentionModule(config, weights, rope)

    def _pre_attn(self, x: np.ndarray) -> np.ndarray:
        if self.config.use_norm:
            return rms_norm(x, self.weights.norm_attn)
        return x

    def _ffn(self, x: np.ndarray) -> np.ndarray:
        h = x
        if self.config.use_norm:
            h = rms_norm(h, self.weights.norm_ffn)
        gate = silu(linear(h, self.weights.w_gate))
        up = linear(h, self.weights.w_up)
        return linear(gate * up, self.weights.w_down)

    def prefill(
        self,
        x: np.ndarray,
        positions: np.ndarray,
        cache: LayerKVCache,
        first_output: int | None = 0,
    ) -> np.ndarray | None:
        """Process a prompt chunk; ``x`` is (seq, d_model).

        ``first_output`` is forwarded to :meth:`AttentionModule.prefill`:
        attention rows before its tile are zeros, so the returned rows
        there are not this layer's output and must not be read. The FFN
        still runs over all ``seq`` rows, which keeps the rows that are
        read bit-identical (GEMM blocking depends on the row count).
        ``None`` (the last layer of a prefill whose logits nobody reads)
        runs the pre-attention norm and the K/V append only — no
        attention, residual or FFN — and returns ``None``.
        """
        attn_out = self.attention.prefill(
            self._pre_attn(x), positions, cache, first_output
        )
        if attn_out is None:
            return None
        x = x + attn_out
        return x + self._ffn(x)

    def decode_rows(
        self,
        x_rows: np.ndarray,
        positions: np.ndarray,
        caches: list[LayerKVCache],
        select_fn: Callable[[int], np.ndarray | None],
        limits: np.ndarray | None = None,
        weights: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Decode one token per row; ``x_rows`` is (n, d_model).

        ``caches[r]`` is row ``r``'s layer cache. Rows of a decode wave
        each own one; in a speculative verify wave consecutive rows share
        one session's cache and ``limits[r]`` (position + 1) caps what a
        dense row may see. ``select_fn(r)`` is the policy hook for row
        ``r``; it runs in row order *before* the row's own KV entry is
        appended, so every ``select`` sees ``len(cache) == position`` and
        rows of one session must arrive in ascending position order. The
        token can then attend to itself, and selection indices cover it.
        Projections and FFN are per-row GEMM slices, so a row's bits do
        not depend on the wave. ``weights`` is passed to
        :meth:`AttentionModule.decode_rows`.
        """
        h = self._pre_attn(x_rows)
        k, v = self.attention.project_kv_rows(h, positions)
        selections: list[np.ndarray | None] = []
        for r in range(x_rows.shape[0]):
            selections.append(select_fn(r))
            self.attention.append_projected_row(caches[r], k, v, r)
        attn_out = self.attention.decode_rows(
            h, positions, caches, selections, limits, weights
        )
        x = x_rows + attn_out
        return x + self._ffn_rows(x)

    def _ffn_rows(self, x: np.ndarray) -> np.ndarray:
        """SwiGLU over (n, d_model) rows with per-row GEMM semantics."""
        h = x
        if self.config.use_norm:
            h = rms_norm(h, self.weights.norm_ffn)
        gate = silu(linear_rows(h, self.weights.w_gate))
        up = linear_rows(h, self.weights.w_up)
        return linear_rows(gate * up, self.weights.w_down)
