"""ShadowKV: quantized-key retrieval (Sun et al., ICML'25).

After prefill the prompt keys are quantized to ``bits`` per value. At
decode time, exact dot products against the *quantized* keys rank every
prompt token, and the top-budget tokens per KV head are selected. Scores
cover all positions (no paging granularity), so accuracy tracks full
attention closely; the costs show up in the timing model (K reconstruction
and value fetch on the critical path, Fig. 7d).
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.llm import TransformerLM
from repro.retrieval.base import BudgetedPolicy
from repro.tensor.ops import top_k_indices
from repro.tensor.quantization import dequantize, quantize_per_channel


class ShadowKVPolicy(BudgetedPolicy):
    """Top-k selection by query scores against low-bit keys."""

    def __init__(
        self,
        model: TransformerLM,
        budget: int,
        bits: int = 4,
        retain_generated: bool = True,
    ):
        super().__init__(model, budget, retain_generated)
        self.bits = bits
        self._quantized_keys: list[np.ndarray] = []  # per layer: (Hkv, prompt, dim)

    def _prepare(self, cache: ModelKVCache) -> None:
        self._quantized_keys = []
        for layer_cache in cache.layers:
            keys = self.prompt_keys(layer_cache)
            q = quantize_per_channel(keys, bits=self.bits, axis=-1)
            self._quantized_keys.append(dequantize(q))

    def _select_prompt(
        self, layer: int, queries: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        keys = self._quantized_keys[layer]
        scores = np.einsum("hnd,hd->hn", keys, queries)
        return top_k_indices(scores, self.budget, axis=-1)
