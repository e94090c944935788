"""KV-selection baselines from the paper's related work (Sec. 2.2).

Every policy implements the :class:`repro.models.llm.SelectionPolicy`
protocol. The dynamic-selection baselines reproduce the paper's Challenge-2
behaviour faithfully: they preprocess only the *prompt* KV cache after
prefill (paging / clustering / quantization) and **retain every newly
generated KV pair**, which is exactly what makes them ineffective in the
long-context *reasoning* scenario.

- :class:`FullAttentionPolicy` — no sparsity (HF eager / FlashAttention /
  FlashInfer differ only in the timing model, not in selection).
- :class:`SlidingWindowPolicy` — permanent eviction, recency window.
- :class:`StreamingLLMPolicy` — attention sinks + window (Xiao et al.).
- :class:`QuestPolicy` — page min/max upper bounds (Tang et al.).
- :class:`ClusterKVPolicy` — key clustering, centroid scores (Liu et al.).
- :class:`ShadowKVPolicy` — low-bit quantized key scores (Sun et al.).
- :class:`H2OPolicy` — accumulated attention mass heavy hitters (extra
  baseline beyond the paper's table, common in the OSS ecosystem).
"""

from repro.retrieval.base import BudgetedPolicy
from repro.retrieval.clusterkv import ClusterKVPolicy
from repro.retrieval.full import FullAttentionPolicy
from repro.retrieval.h2o import H2OPolicy
from repro.retrieval.quest import QuestPolicy
from repro.retrieval.registry import (
    POLICIES,
    available_policies,
    make_policy,
    resolve_policy_name,
)
from repro.retrieval.shadowkv import ShadowKVPolicy
from repro.retrieval.sliding import SlidingWindowPolicy
from repro.retrieval.streaming import StreamingLLMPolicy

__all__ = [
    "BudgetedPolicy",
    "FullAttentionPolicy",
    "SlidingWindowPolicy",
    "StreamingLLMPolicy",
    "QuestPolicy",
    "ClusterKVPolicy",
    "ShadowKVPolicy",
    "H2OPolicy",
    "POLICIES",
    "available_policies",
    "make_policy",
    "resolve_policy_name",
]
