"""Elastic loading (paper Sec. 5.4).

The GPU holds a fixed-budget staging buffer of selected KV pairs. Between
adjacent decode steps the selections overlap heavily (>80%, Fig. 6b), so
only the set difference ``S_now − S_last`` is transferred; evicted slots
(``S_last − S_now``) are overwritten in place. Under a fixed budget the two
differences have equal size, so loads == evictions every step.

Two collaborating pieces:

- :class:`ElasticTransferTracker` — pure set algebra over selection
  sequences; computes per-step transfer volumes and overlap statistics
  without touching payloads. Used by the analysis/timing experiments.
- :class:`ElasticKVLoader` — the functional integration: routes real KV
  payloads from a :class:`TieredKVStore` through per-layer
  :class:`GpuSlotBuffer`s, asserting residency invariants along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kvcache.pool import GpuSlotBuffer, TieredKVStore


@dataclass
class StepTransfer:
    """Per-step transfer accounting."""

    loaded_tokens: int
    evicted_tokens: int
    bytes_moved: int
    overlap_fraction: float  # |S_now & S_last| / |S_now|
    selection_size: int = 0


@dataclass
class ElasticTransferTracker:
    """Set-difference accounting over a stream of per-head selections.

    ``bytes_per_token`` is the K+V footprint of one token in one layer;
    multiply by layers outside if tracking a whole model.
    """

    bytes_per_token: int
    elastic: bool = True  # False models naive full reload each step
    steps: list[StepTransfer] = field(default_factory=list)
    # Previous step's sorted unique indices.
    _last: np.ndarray | None = field(default=None, repr=False, compare=False)

    def observe(self, selection: np.ndarray) -> StepTransfer:
        """Record one step's selection (any shape; flattened to a set)."""
        now = np.unique(np.asarray(selection))
        last = self._last
        shared = (
            0 if last is None
            else np.intersect1d(now, last, assume_unique=True).size
        )
        if last is None or not self.elastic:
            loaded = now.size
            evicted = 0 if last is None else last.size
        else:
            loaded = now.size - shared
            evicted = last.size - shared
        step = StepTransfer(
            loaded_tokens=loaded,
            evicted_tokens=evicted,
            bytes_moved=loaded * self.bytes_per_token,
            overlap_fraction=shared / max(now.size, 1),
            selection_size=now.size,
        )
        self.steps.append(step)
        self._last = now
        return step

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_moved for s in self.steps)

    @property
    def mean_overlap(self) -> float:
        """Mean adjacent-step overlap, excluding the cold first step."""
        tail = self.steps[1:]
        if not tail:
            return 0.0
        return float(np.mean([s.overlap_fraction for s in tail]))

    def transfer_reduction_vs_full_reload(self) -> float:
        """Fraction of bytes saved relative to reloading |S_now| every step."""
        full = sum(s.selection_size for s in self.steps) * self.bytes_per_token
        if full == 0:
            return 0.0
        return 1.0 - self.total_bytes / full


class ElasticKVLoader:
    """Per-layer slot buffers fed from a tiered store by set difference.

    The loader owns one :class:`GpuSlotBuffer` per (layer, kv-head) — head-
    level selections place different tokens in different heads' slots — and
    charges every miss to the tiered store's transfer ledger.
    """

    def __init__(self, stores: list[TieredKVStore], budget: int):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.stores = stores
        self.budget = budget
        self._buffers: list[list[GpuSlotBuffer]] = [
            [
                GpuSlotBuffer(budget + 1, 1, store.head_dim)
                for _ in range(store.n_kv_heads)
            ]
            for store in stores
        ]

    def load_step(self, layer: int, selection: np.ndarray) -> int:
        """Update layer buffers to hold ``selection``; returns bytes moved.

        ``selection`` is (n_kv_heads, k) or 1-D (broadcast to all heads).
        """
        store = self.stores[layer]
        selection = np.asarray(selection)
        if selection.ndim == 1:
            selection = np.broadcast_to(selection, (store.n_kv_heads, selection.size))
        total_bytes = 0
        per_head_bytes = store.bytes_per_token // store.n_kv_heads

        for h in range(store.n_kv_heads):
            buffer = self._buffers[layer][h]

            def fetch(token: int, head=h):
                k, v = store._keys[head, token], store._values[head, token]
                return k[None, :], v[None, :]

            loaded, _ = buffer.update(selection[h], fetch)
            total_bytes += loaded * per_head_bytes
        store.ledger.record("h2d", total_bytes)
        return total_bytes

    def gather(self, layer: int, head: int, token_indices: np.ndarray):
        """Read staged KV for one head (asserts residency)."""
        return self._buffers[layer][head].gather(token_indices)

    def resident_tokens(self, layer: int, head: int) -> frozenset[int]:
        return self._buffers[layer][head].resident_tokens
