"""Dense KV caches with amortized append and index gather.

Shapes follow the (batch, heads, seq, head_dim) convention used throughout
the transformer substrate. ``LayerKVCache`` owns one layer's K and V arrays;
``ModelKVCache`` is the per-request stack of layer caches the engine threads
through prefill and decode.
"""

from __future__ import annotations

import numpy as np


class LayerKVCache:
    """Growable K/V storage for one attention layer.

    Uses capacity doubling so appending one token per decode step is O(1)
    amortized rather than O(seq) per step.
    """

    def __init__(
        self,
        batch: int,
        n_kv_heads: int,
        head_dim: int,
        capacity: int = 64,
        dtype: np.dtype = np.float64,
    ):
        if batch < 1 or n_kv_heads < 1 or head_dim < 1:
            raise ValueError("batch, n_kv_heads and head_dim must be positive")
        self.batch = batch
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.dtype = np.dtype(dtype)
        self._len = 0
        self._k = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=self.dtype)
        self._v = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=self.dtype)

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        """View of the valid K entries, shape (batch, kv_heads, len, dim)."""
        return self._k[:, :, : self._len, :]

    @property
    def values(self) -> np.ndarray:
        """View of the valid V entries, shape (batch, kv_heads, len, dim)."""
        return self._v[:, :, : self._len, :]

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append new tokens; ``k``/``v`` shaped (batch, kv_heads, new, dim)."""
        if k.shape != v.shape:
            raise ValueError(f"k shape {k.shape} != v shape {v.shape}")
        expected = (self.batch, self.n_kv_heads)
        if k.shape[:2] != expected or k.shape[3] != self.head_dim:
            raise ValueError(
                f"append shape {k.shape} incompatible with cache "
                f"(batch={self.batch}, kv_heads={self.n_kv_heads}, dim={self.head_dim})"
            )
        new = k.shape[2]
        needed = self._len + new
        if needed > self._k.shape[2]:
            capacity = max(needed, 2 * self._k.shape[2])
            grown_k = np.zeros(
                (self.batch, self.n_kv_heads, capacity, self.head_dim),
                dtype=self.dtype,
            )
            grown_v = np.zeros_like(grown_k)
            grown_k[:, :, : self._len, :] = self._k[:, :, : self._len, :]
            grown_v[:, :, : self._len, :] = self._v[:, :, : self._len, :]
            self._k = grown_k
            self._v = grown_v
        self._k[:, :, self._len : needed, :] = k
        self._v[:, :, self._len : needed, :] = v
        self._len = needed

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Select KV pairs by token index.

        ``indices`` is either 1-D (same selection for every head) or shaped
        (kv_heads, k) for head-level selection (the paper's Figure 5 gather).
        Returns (k, v) shaped (batch, kv_heads, k, dim).
        """
        indices = self._checked(indices)
        shape = (self.batch, self.n_kv_heads, indices.shape[-1], self.head_dim)
        k_out = np.empty(shape, dtype=self.dtype)
        v_out = np.empty(shape, dtype=self.dtype)
        for b in range(self.batch):
            self._take_rows(b, indices, k_out[b], v_out[b])
        return k_out, v_out

    def gather_into(
        self, indices: np.ndarray, k_out: np.ndarray, v_out: np.ndarray
    ) -> None:
        """:meth:`gather` (batch 0) written straight into caller buffers.

        Batched-decode hot path: the selection lands in the group's
        preallocated stacked ``(kv_heads, k, dim)`` K/V buffers instead of
        per-session temporaries that a later ``np.stack`` would copy again.
        """
        self._take_rows(0, self._checked(indices), k_out, v_out)

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as an array, after the shape and range checks."""
        indices = np.asarray(indices)
        if indices.ndim not in (1, 2):
            raise ValueError(f"indices must be 1-D or 2-D, got ndim={indices.ndim}")
        if indices.ndim == 2 and indices.shape[0] != self.n_kv_heads:
            raise ValueError(
                f"head-level indices have {indices.shape[0]} rows, "
                f"cache has {self.n_kv_heads} kv heads"
            )
        if indices.size:
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= self._len:
                raise IndexError(
                    f"gather index out of range [0, {self._len}): "
                    f"min={low}, max={high}"
                )
        return indices

    def _take_rows(
        self, b: int, indices: np.ndarray, k_out: np.ndarray, v_out: np.ndarray
    ) -> None:
        """Copy the selected rows of each head's contiguous (capacity, dim)
        block: cost follows the selection, not the cache length.

        ``indices`` passed :meth:`_checked`, so ``mode="clip"`` never clips;
        it is there because ``mode="raise"`` stages ``out`` through a
        temporary (a second copy of every selected byte).
        """
        per_head = indices.ndim == 2
        for h in range(self.n_kv_heads):
            rows = indices[h] if per_head else indices
            self._k[b, h].take(rows, axis=0, out=k_out[h], mode="clip")
            self._v[b, h].take(rows, axis=0, out=v_out[h], mode="clip")

    def copy_kv_into(
        self, k_out: np.ndarray, v_out: np.ndarray, limit: int | None = None
    ) -> None:
        """Copy valid K/V entries into caller buffers (full attention).

        ``limit`` caps the visible length: a speculative multi-position
        verify appends several tokens before attending, so each row must
        see only the entries at positions below its own (the causal view a
        sequential decode at that position would have had).
        """
        end = self._len if limit is None else limit
        np.copyto(k_out, self._k[0, :, :end])
        np.copyto(v_out, self._v[0, :, :end])

    def truncate(self, length: int) -> None:
        """Drop all entries at positions >= ``length`` (used by rollbacks)."""
        if length < 0 or length > self._len:
            raise ValueError(f"truncate length {length} outside [0, {self._len}]")
        self._len = length

    def clone(self) -> "LayerKVCache":
        """Deep copy (shared-prefill evaluation decodes on clones)."""
        copy = LayerKVCache(
            self.batch,
            self.n_kv_heads,
            self.head_dim,
            capacity=self._k.shape[2],
            dtype=self.dtype,
        )
        copy._k = self._k.copy()
        copy._v = self._v.copy()
        copy._len = self._len
        return copy

    def nbytes(self, bytes_per_value: int = 2) -> int:
        """Logical footprint of the valid entries at the given precision."""
        return (
            2 * self.batch * self.n_kv_heads * self._len * self.head_dim
            * bytes_per_value
        )


class ModelKVCache:
    """Per-request stack of :class:`LayerKVCache`, one per transformer layer."""

    def __init__(
        self,
        n_layers: int,
        batch: int,
        n_kv_heads: int,
        head_dim: int,
        dtype: np.dtype = np.float64,
    ):
        if n_layers < 1:
            raise ValueError("n_layers must be positive")
        self.layers = [
            LayerKVCache(batch, n_kv_heads, head_dim, dtype=dtype)
            for _ in range(n_layers)
        ]

    def __getitem__(self, layer: int) -> LayerKVCache:
        return self.layers[layer]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def seq_len(self) -> int:
        """Sequence length (identical across layers by construction)."""
        return len(self.layers[0])

    def nbytes(self, bytes_per_value: int = 2) -> int:
        """Total logical KV footprint across layers."""
        return sum(layer.nbytes(bytes_per_value) for layer in self.layers)

    def truncate(self, length: int) -> None:
        """Drop entries at positions >= ``length`` in every layer.

        Speculative decoding's rollback: rejected draft tokens' KV entries
        are discarded so the cache holds exactly what a never-drafted run
        would hold.
        """
        for layer in self.layers:
            layer.truncate(length)

    def clone(self) -> "ModelKVCache":
        """Deep copy of every layer's cache."""
        copy = ModelKVCache.__new__(ModelKVCache)
        copy.layers = [layer.clone() for layer in self.layers]
        return copy
