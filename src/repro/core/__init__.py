"""SpeContext: the paper's contribution (Secs. 4-6).

- :mod:`repro.core.retrieval_head` — C1, the lightweight retrieval head: a
  pruned DLM (embedding + QK projections) that selects globally important
  tokens *before* the LLM forward pass, at head level, for MHA/GQA/MQA/MLA.
- :mod:`repro.core.elastic` — C2a, elastic loading: accounts the transfer
  of only the selection set difference between adjacent steps (the
  functional path gathers the full budget; the simulator times the
  difference).
- :mod:`repro.core.prefetch` — C2b, the asynchronous two-stream prefetch
  dataflow that overlaps KV transfer with LLM compute.
- :mod:`repro.core.memory_model` — C3a, the theoretical memory model
  (Eq. 6-8) and Algorithm 1 threshold computation.
- :mod:`repro.core.adaptive` — C3b, Algorithm 2's runtime layer offloading.

The three contributions run end to end inside
:class:`repro.serving.SpeContextServer`, which reports them per request
in :class:`repro.api.request.GenerationStats`.
"""

from repro.core.adaptive import AdaptiveMemoryManager, OffloadEvent
from repro.core.elastic import ElasticTransferTracker
from repro.core.memory_model import MemoryBreakdown, MemoryModel
from repro.core.prefetch import AsyncPrefetcher, DataflowKind, StepTimings
from repro.core.retrieval_head import (
    LightweightRetrievalHead,
    RetrievalHeadConfig,
    SpeContextPolicy,
)

__all__ = [
    "LightweightRetrievalHead",
    "RetrievalHeadConfig",
    "SpeContextPolicy",
    "ElasticTransferTracker",
    "AsyncPrefetcher",
    "StepTimings",
    "DataflowKind",
    "MemoryModel",
    "MemoryBreakdown",
    "AdaptiveMemoryManager",
    "OffloadEvent",
]
