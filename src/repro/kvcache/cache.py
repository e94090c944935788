"""Dense KV caches with amortized append and index gather.

Shapes follow the (batch, heads, seq, head_dim) convention used throughout
the transformer substrate. ``LayerKVCache`` owns one layer's K and V arrays;
``ModelKVCache`` is the per-request stack of layer caches the engine threads
through prefill and decode.

Precision contract: K/V is *stored* in float32 (:data:`KV_DTYPE`), the
dtype every projection emits, so storage never rounds a value; every
reader that does arithmetic on cached values upcasts the rows it reads to
float64 and runs its float64 ops on them. :meth:`LayerKVCache.gather_into`
and :meth:`LayerKVCache.copy_kv_into` do that upcast into float64 caller
buffers; :attr:`LayerKVCache.keys`/``values``, :meth:`LayerKVCache.gather`,
pool payloads, swap and migration carry the stored float32 bytes.
"""

from __future__ import annotations

import numpy as np

# Storage dtype of every K/V cache; ``append`` refuses anything else.
KV_DTYPE = np.dtype(np.float32)


class LayerKVCache:
    """Growable K/V storage for one attention layer.

    A server sizes the cache once with :meth:`reserve` when it knows the
    request's peak length; past the capacity, ``append`` falls back to
    capacity doubling, so appending one token per decode step stays O(1)
    amortized rather than O(seq) per step.
    """

    def __init__(
        self, batch: int, n_kv_heads: int, head_dim: int, capacity: int = 64
    ):
        if batch < 1 or n_kv_heads < 1 or head_dim < 1:
            raise ValueError("batch, n_kv_heads and head_dim must be positive")
        self.batch = batch
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self._len = 0
        self._k = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=KV_DTYPE)
        self._v = np.zeros((batch, n_kv_heads, capacity, head_dim), dtype=KV_DTYPE)

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        """Rows allocated per head, valid or not."""
        return self._k.shape[2]

    def reserve(self, capacity: int) -> None:
        """Grow the allocation to at least ``capacity`` rows.

        The only growth code. ``np.zeros`` maps fresh zero pages, so rows
        past the valid ones become resident only when written.
        """
        if capacity <= self.capacity:
            return
        shape = (self.batch, self.n_kv_heads, capacity, self.head_dim)
        for name in ("_k", "_v"):
            grown = np.zeros(shape, dtype=KV_DTYPE)
            grown[:, :, : self._len] = getattr(self, name)[:, :, : self._len]
            setattr(self, name, grown)

    @property
    def keys(self) -> np.ndarray:
        """View of the valid K entries, shape (batch, kv_heads, len, dim)."""
        return self._k[:, :, : self._len, :]

    @property
    def values(self) -> np.ndarray:
        """View of the valid V entries, shape (batch, kv_heads, len, dim)."""
        return self._v[:, :, : self._len, :]

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append new tokens; ``k``/``v`` shaped (batch, kv_heads, new, dim).

        Both must already be float32: storing a float64 input would round
        it silently and break the value-preserving contract.
        """
        if k.dtype != KV_DTYPE or v.dtype != KV_DTYPE:
            raise TypeError(
                f"KV cache stores {KV_DTYPE}, got k {k.dtype} and v {v.dtype}"
            )
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
        if needed > self.capacity:
            self.reserve(max(needed, 2 * self.capacity))
        self._k[:, :, self._len : needed, :] = k
        self._v[:, :, self._len : needed, :] = v
        self._len = needed

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Select KV pairs by token index.

        ``indices`` is either 1-D (same selection for every head) or shaped
        (kv_heads, k) for head-level selection (the paper's Figure 5 gather).
        Returns the stored float32 (k, v) shaped (batch, kv_heads, k, dim).
        """
        indices = self._checked(indices)
        shape = (self.batch, self.n_kv_heads, indices.shape[-1], self.head_dim)
        k_out = np.empty(shape, dtype=KV_DTYPE)
        v_out = np.empty(shape, dtype=KV_DTYPE)
        for b in range(self.batch):
            self._take_rows(self._k[b], indices, k_out[b])
            self._take_rows(self._v[b], indices, v_out[b])
        return k_out, v_out

    def gather_into(
        self,
        indices: np.ndarray,
        k_out: np.ndarray,
        v_out: np.ndarray,
        staging: np.ndarray,
    ) -> None:
        """:meth:`gather` (batch 0) upcast into float64 caller buffers.

        Decode hot path: the selection lands in the decode kernel's
        row-sized ``(kv_heads, k, dim)`` float64 K/V buffers, which the
        next row of the wave reuses while they are cache-hot. ``take``
        refuses a float64 ``out`` for float32 storage, so each side's rows
        are taken into ``staging`` (a caller-owned float32 buffer shaped
        like ``k_out``, reused for every row of the wave) and upcast into
        ``k_out``/``v_out`` with one copy.
        """
        indices = self._checked(indices)
        self._take_rows(self._k[0], indices, staging)
        np.copyto(k_out, staging)
        self._take_rows(self._v[0], indices, staging)
        np.copyto(v_out, staging)

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
        self, storage: np.ndarray, indices: np.ndarray, out: np.ndarray
    ) -> None:
        """Copy the selected rows of each head's contiguous (capacity, dim)
        block of ``storage`` into ``out``: cost follows the selection, not
        the cache length.

        ``indices`` passed :meth:`_checked`, so ``mode="clip"`` never clips;
        it is there because ``mode="raise"`` stages ``out`` through a
        temporary (a second copy of every selected byte).
        """
        per_head = indices.ndim == 2
        for h in range(self.n_kv_heads):
            rows = indices[h] if per_head else indices
            storage[h].take(rows, axis=0, out=out[h], mode="clip")

    def copy_kv_into(
        self, k_out: np.ndarray, v_out: np.ndarray, limit: int | None = None
    ) -> None:
        """Copy valid K/V entries into caller buffers (full attention),
        upcasting to the buffers' dtype.

        ``limit`` caps the visible length: a speculative multi-position
        verify appends several tokens before attending, so each row must
        see only the entries at positions below its own (the causal view a
        sequential decode at that position would have had). Like a gather,
        it may not reach past the valid entries.
        """
        end = self._len if limit is None else limit
        if end < 0 or end > self._len:
            raise IndexError(f"copy limit {end} outside [0, {self._len}]")
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
            capacity=self.capacity,
        )
        copy._k = self._k.copy()
        copy._v = self._v.copy()
        copy._len = self._len
        return copy

    def __getstate__(self) -> dict:
        """Pickle the valid entries only, not the capacity behind them (a
        session export ships what the cache holds)."""
        state = self.__dict__.copy()
        state["_k"] = self.keys.copy()
        state["_v"] = self.values.copy()
        state["_capacity"] = self.capacity
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore the sender's capacity, so the unpickled cache grows as
        the sender's would have."""
        capacity = state.pop("_capacity")
        self.__dict__.update(state)
        self.reserve(capacity)

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
    ):
        if n_layers < 1:
            raise ValueError("n_layers must be positive")
        self.layers = [
            LayerKVCache(batch, n_kv_heads, head_dim) for _ in range(n_layers)
        ]

    def __getitem__(self, layer: int) -> LayerKVCache:
        return self.layers[layer]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def seq_len(self) -> int:
        """Sequence length (identical across layers by construction)."""
        return len(self.layers[0])

    @property
    def capacity(self) -> int:
        """Rows allocated per layer (identical across layers)."""
        return self.layers[0].capacity

    def reserve(self, capacity: int) -> None:
        """Size every layer for ``capacity`` tokens (see
        :meth:`LayerKVCache.reserve`)."""
        for layer in self.layers:
            layer.reserve(capacity)

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
