"""Quest: query-aware page-level KV selection (Tang et al., ICML'24).

After prefill, the prompt keys of every layer are partitioned into fixed
pages and summarized by element-wise min/max vectors. At each decode step,
each layer computes an upper bound on q.k per page from the metadata alone
(O(n_pages) instead of O(seq)) and loads the top pages within the budget.
Pages are coarse: a page earns a high bound if *any* coordinate pattern in
it could match, which over-selects correlated distractor pages — the source
of Quest's accuracy gap at small budgets in Fig. 8.
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.llm import TransformerLM
from repro.retrieval.base import BudgetedPolicy
from repro.tensor.ops import top_k_indices


class QuestPolicy(BudgetedPolicy):
    """Page min/max upper-bound selection over the prompt KV cache."""

    def __init__(
        self,
        model: TransformerLM,
        budget: int,
        page_size: int = 16,
        retain_generated: bool = True,
    ):
        super().__init__(model, budget, retain_generated)
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        if budget < page_size:
            raise ValueError(f"budget {budget} smaller than one page ({page_size})")
        self.page_size = page_size
        self._page_min: list[np.ndarray] = []  # per layer: (Hkv, n_pages, dim)
        self._page_max: list[np.ndarray] = []

    def _prepare(self, cache: ModelKVCache) -> None:
        """Build page metadata for the prompt region of every layer."""
        self._page_min = []
        self._page_max = []
        n_pages = self.prompt_len // self.page_size  # partial tail page dropped
        for layer_cache in cache.layers:
            keys = self.prompt_keys(layer_cache)[:, : n_pages * self.page_size]
            heads, _, dim = keys.shape
            paged = keys.reshape(heads, n_pages, self.page_size, dim)
            self._page_min.append(paged.min(axis=2))
            self._page_max.append(paged.max(axis=2))

    def _select_prompt(
        self, layer: int, queries: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        page_min = self._page_min[layer]
        page_max = self._page_max[layer]
        heads, n_pages, _ = page_min.shape
        q = queries[:, None, :]  # (Hkv, 1, dim)
        bounds = np.maximum(q * page_min, q * page_max).sum(axis=-1)  # (Hkv, n_pages)

        pages_needed = max(self.budget // self.page_size, 1)
        pages_needed = min(pages_needed, n_pages)
        top_pages = top_k_indices(bounds, pages_needed, axis=-1)  # (Hkv, P)

        token_count = pages_needed * self.page_size
        selection = np.empty((heads, token_count), dtype=np.int64)
        offsets = np.arange(self.page_size)
        for h in range(heads):
            starts = top_pages[h] * self.page_size
            selection[h] = (starts[:, None] + offsets[None, :]).ravel()

        # The prompt tail that doesn't fill a whole page (typically the
        # question itself) is always kept, like Quest's recent-token handling.
        tail_start = n_pages * self.page_size
        if tail_start < self.prompt_len:
            tail = np.arange(tail_start, self.prompt_len)
            tail = np.broadcast_to(tail, (heads, tail.shape[0]))
            selection = np.concatenate([selection, tail], axis=1)
        return selection
