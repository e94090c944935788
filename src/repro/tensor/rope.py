"""Rotary positional embeddings with YaRN context-window extension.

The paper's retrieval head reuses the EAGLE-3 DLM, which is trained with a 2K
context, and extends it to long contexts "using the training-free method
provided by YaRN" (Sec. 4.3). ``YarnConfig`` implements the NTK-by-parts
interpolation of YaRN (Peng et al.): low-frequency dimensions are position-
interpolated, high-frequency dimensions are left untouched, with a linear
ramp between the two regimes and an attention temperature correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class YarnConfig:
    """YaRN extension parameters.

    Attributes:
        original_max_position: context window the weights were trained with.
        scaling_factor: ratio of the target window to the original window.
        beta_fast: rotations threshold above which dims are pure extrapolation.
        beta_slow: rotations threshold below which dims are pure interpolation.
        mscale: attention temperature coefficient (0.1 * ln(s) + 1 by default).
    """

    original_max_position: int = 2048
    scaling_factor: float = 1.0
    beta_fast: float = 32.0
    beta_slow: float = 1.0

    @property
    def attention_factor(self) -> float:
        """YaRN's sqrt-temperature applied to attention logits."""
        if self.scaling_factor <= 1.0:
            return 1.0
        return 0.1 * math.log(self.scaling_factor) + 1.0


def _yarn_ramp(low: float, high: float, dim_half: int) -> np.ndarray:
    """Linear ramp mask over rotary dimension indices, clipped to [0, 1]."""
    if low == high:
        high += 1e-3
    ramp = (np.arange(dim_half, dtype=np.float64) - low) / (high - low)
    return np.clip(ramp, 0.0, 1.0)


def _yarn_correction_index(
    num_rotations: float, dim: int, base: float, max_position: int
) -> float:
    """Dimension index where a frequency completes ``num_rotations`` over the window."""
    return (dim * math.log(max_position / (num_rotations * 2 * math.pi))) / (
        2 * math.log(base)
    )


# Shared cos/sin tables, keyed by every parameter that determines their
# values: (dim, max_position, base, yarn params, dtype). Building the trig
# tables is O(max_position * dim) — by far the dominant cost of a
# RotaryEmbedding — and the serving layer constructs one embedding per
# retrieval head (i.e. per specontext request), all with identical
# parameters. Cached tables are marked read-only so sharing is safe.
_TABLE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_TABLE_CACHE_STATS = {"hits": 0, "misses": 0}


def rope_table_cache_info() -> dict[str, int]:
    """Hit/miss counters of the shared cos/sin table cache (for tests)."""
    return dict(_TABLE_CACHE_STATS)


def clear_rope_table_cache() -> None:
    """Drop all cached tables and reset the counters."""
    _TABLE_CACHE.clear()
    _TABLE_CACHE_STATS["hits"] = 0
    _TABLE_CACHE_STATS["misses"] = 0


class RotaryEmbedding:
    """Precomputed cos/sin tables for rotary position embedding.

    Supports plain RoPE (``yarn=None``) and YaRN-extended RoPE. The ``dim``
    is the per-head dimension; rotation happens over pairs laid out as the
    first/second half of the head dimension (Llama convention).
    """

    def __init__(
        self,
        dim: int,
        max_position: int,
        base: float = 10000.0,
        yarn: YarnConfig | None = None,
        dtype: np.dtype = np.float32,
    ):
        if dim % 2 != 0:
            raise ValueError(f"rotary dim must be even, got {dim}")
        self.dim = dim
        self.max_position = max_position
        self.base = base
        self.yarn = yarn

        dtype = np.dtype(dtype)
        key = (
            dim,
            max_position,
            base,
            yarn
            if yarn is None
            else (
                yarn.original_max_position,
                yarn.scaling_factor,
                yarn.beta_fast,
                yarn.beta_slow,
            ),
            dtype.str,
        )
        cached = _TABLE_CACHE.get(key)
        if cached is not None:
            _TABLE_CACHE_STATS["hits"] += 1
            self._cos, self._sin = cached
        else:
            _TABLE_CACHE_STATS["misses"] += 1
            self._cos, self._sin = self._build_tables(
                dim, max_position, base, yarn, dtype
            )
            self._cos.setflags(write=False)
            self._sin.setflags(write=False)
            _TABLE_CACHE[key] = (self._cos, self._sin)
        self._scale = yarn.attention_factor if yarn is not None else 1.0

    @staticmethod
    def _build_tables(
        dim: int,
        max_position: int,
        base: float,
        yarn: YarnConfig | None,
        dtype: np.dtype,
    ) -> tuple[np.ndarray, np.ndarray]:
        half = dim // 2
        inv_freq = 1.0 / (base ** (2.0 * np.arange(half, dtype=np.float64) / dim))

        if yarn is not None and yarn.scaling_factor > 1.0:
            low = _yarn_correction_index(
                yarn.beta_fast, dim, base, yarn.original_max_position
            )
            high = _yarn_correction_index(
                yarn.beta_slow, dim, base, yarn.original_max_position
            )
            low = max(math.floor(low), 0)
            high = min(math.ceil(high), half - 1)
            # 1 where we extrapolate (high frequency), 0 where we interpolate.
            extrapolation_mask = 1.0 - _yarn_ramp(low, high, half)
            interpolated = inv_freq / yarn.scaling_factor
            inv_freq = (
                interpolated * (1.0 - extrapolation_mask)
                + inv_freq * extrapolation_mask
            )

        positions = np.arange(max_position, dtype=np.float64)
        freqs = np.outer(positions, inv_freq)
        return np.cos(freqs).astype(dtype), np.sin(freqs).astype(dtype)

    @property
    def attention_scale(self) -> float:
        """Multiplicative correction YaRN applies to q/k before attention."""
        return self._scale

    def apply(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate ``x`` of shape (..., seq, dim) at integer ``positions`` (seq,)."""
        positions = np.asarray(positions)
        if positions.ndim != 1 or positions.shape[0] != x.shape[-2]:
            raise ValueError(
                f"positions shape {positions.shape} does not match seq "
                f"len {x.shape[-2]}"
            )
        if positions.size:
            low, high = int(positions.min()), int(positions.max())
            if low < 0:  # fancy indexing would wrap it to the table's tail
                raise ValueError(f"negative position {low}")
            if high >= self.max_position:
                raise ValueError(
                    f"position {high} exceeds table size {self.max_position}"
                )
        cos = self._cos[positions]
        sin = self._sin[positions]
        half = self.dim // 2
        x1 = x[..., :half]
        x2 = x[..., half:]
        rotated = np.concatenate(
            (x1 * cos - x2 * sin, x2 * cos + x1 * sin), axis=-1
        )
        return rotated * self._scale
