"""ClusterKV: semantic-space clustering of keys (Liu et al., DAC'25).

After prefill, each layer's prompt keys are clustered per KV head (k-means
in key space); cluster centroids act as retrieval vectors. At decode time,
clusters are ranked by centroid-query dot product and selected greedily
until the token budget fills. Clusters follow key geometry (unlike Quest's
positional pages), which is why ClusterKV recalls evidence better at small
budgets — the paper measures it above Quest throughout Fig. 8.
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.llm import TransformerLM
from repro.retrieval.base import BudgetedPolicy


class ClusterKVPolicy(BudgetedPolicy):
    """Centroid-scored cluster selection over the prompt KV cache."""

    def __init__(
        self,
        model: TransformerLM,
        budget: int,
        tokens_per_cluster: int = 8,
        retain_generated: bool = True,
        seed: int = 0,
    ):
        super().__init__(model, budget, retain_generated)
        if tokens_per_cluster < 1:
            raise ValueError("tokens_per_cluster must be >= 1")
        self.tokens_per_cluster = tokens_per_cluster
        self.seed = seed
        # per layer: list over kv heads of (centroids (C, dim), labels (prompt_len,))
        self._clusters: list[list[tuple[np.ndarray, np.ndarray]]] = []

    def _prepare(self, cache: ModelKVCache) -> None:
        # scipy costs ~0.5 s and ~40 MB to import; only clustering needs it.
        from scipy.cluster.vq import kmeans2

        self._clusters = []
        n_clusters = max(self.prompt_len // self.tokens_per_cluster, 2)
        for layer_cache in cache.layers:
            keys = layer_cache.keys[0][:, : self.prompt_len, :]
            per_head = []
            for h in range(keys.shape[0]):
                centroids, labels = kmeans2(
                    keys[h].astype(np.float64),
                    n_clusters,
                    minit="points",
                    seed=self.seed,
                )
                per_head.append((centroids, labels))
            self._clusters.append(per_head)

    def _select_prompt(
        self, layer: int, queries: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        per_head = self._clusters[layer]
        heads = len(per_head)
        selection = np.empty((heads, self.budget), dtype=np.int64)
        for h in range(heads):
            centroids, labels = per_head[h]
            scores = centroids @ queries[h]
            self.count_ops(centroids.size)
            order = np.argsort(-scores)
            picked: list[int] = []
            for cluster_id in order:
                members = np.nonzero(labels == cluster_id)[0]
                picked.extend(int(m) for m in members)
                if len(picked) >= self.budget:
                    break
            # Clusters are uneven; trim to the budget (highest-ranked first).
            selection[h] = np.array(picked[: self.budget], dtype=np.int64)
        return selection
