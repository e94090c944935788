"""H2O-style heavy-hitter selection (extra baseline beyond the paper's set).

Maintains, per layer and KV head, an accumulator of attention mass each
prompt token has received across decode steps; keeps the heaviest hitters
plus a recency window. Unlike the paper's baselines this one adapts its
scores over the course of generation, at the cost of computing full scores
every step — included because H2O is ubiquitous in the OSS KV-sparsity
ecosystem the paper situates itself in.
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.llm import TransformerLM
from repro.retrieval.base import BudgetedPolicy
from repro.tensor.ops import softmax, top_k_indices


class H2OPolicy(BudgetedPolicy):
    """Accumulated-attention heavy hitters + recency window."""

    def __init__(
        self,
        model: TransformerLM,
        budget: int,
        recent_fraction: float = 0.25,
        retain_generated: bool = True,
    ):
        super().__init__(model, budget, retain_generated)
        if not 0.0 <= recent_fraction < 1.0:
            raise ValueError("recent_fraction must be in [0, 1)")
        self.recent_fraction = recent_fraction
        self._accumulated: list[np.ndarray] = []  # per layer: (Hkv, prompt_len)
        self._spec_acc_base: list[np.ndarray] = []
        self._spec_contribs: list[list[tuple[int, np.ndarray]]] = []

    def _prepare(self, cache: ModelKVCache) -> None:
        self._accumulated = [
            np.zeros((layer_cache.keys.shape[1], self.prompt_len))
            for layer_cache in cache.layers
        ]

    def spec_begin(self) -> None:
        super().spec_begin()
        self._spec_acc_base = [acc.copy() for acc in self._accumulated]
        self._spec_contribs = [[] for _ in self._accumulated]

    def spec_commit(self, m: int) -> None:
        # Rebuild each layer's accumulator from the pre-speculation snapshot
        # by replaying only the committed positions' softmax contributions in
        # their original order — the exact float-add sequence a sequential
        # never-drafted run would have performed.
        for layer, base in enumerate(self._spec_acc_base):
            acc = base
            for t, contrib in self._spec_contribs[layer]:
                if t < m:
                    acc += contrib
            self._accumulated[layer] = acc
        self._spec_acc_base = []
        self._spec_contribs = []
        super().spec_commit(m)

    def _select_prompt(
        self, layer: int, queries: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        keys = self.prompt_keys(cache)
        scores = np.einsum("hnd,hd->hn", keys, queries) / np.sqrt(keys.shape[-1])
        contrib = softmax(scores, axis=-1)
        self._accumulated[layer] += contrib
        if self._spec_mode:
            self._spec_contribs[layer].append((self._spec_t, contrib))

        n_recent = int(self.budget * self.recent_fraction)
        n_heavy = self.budget - n_recent
        heavy = top_k_indices(self._accumulated[layer], n_heavy, axis=-1)
        if n_recent == 0:
            return heavy
        recent = np.arange(self.prompt_len - n_recent, self.prompt_len)
        heads = heavy.shape[0]
        out = np.empty((heads, self.budget), dtype=np.int64)
        for h in range(heads):
            merged = np.union1d(heavy[h], recent)
            if merged.size < self.budget:
                # Union removed duplicates; pad with next-heaviest tokens.
                pool = top_k_indices(
                    self._accumulated[layer][h], self.budget + n_recent
                )
                extra = [t for t in pool if t not in set(merged.tolist())]
                tail = np.array(
                    extra[: self.budget - merged.size], dtype=np.int64
                )
                merged = np.concatenate([merged, tail])
            out[h] = merged[: self.budget]
        return out
