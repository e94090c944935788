"""Performance simulation of LLM inference engines at paper scale.

Public surface:

- :mod:`repro.perf.engines` — declarative :class:`EngineSpec` records for
  every engine the paper times (HF Eager/FlashAttention, FlashInfer,
  Quest, ClusterKV, ShadowKV, SpeContext and its ablation variants).
- :mod:`repro.perf.simulate` — :class:`PerfSimulator`, which maps
  (engine, model, hardware, workload) to per-step stream schedules and
  end-to-end throughput.
- :mod:`repro.perf.capacity` — the largest batch an engine admits under
  memory limits.
"""

from repro.perf.capacity import max_fitting_batch
from repro.perf.engines import (
    ABLATION_ENGINES,
    CLOUD_ENGINES,
    CLUSTERKV,
    FLASHINFER,
    HF_EAGER,
    HF_EAGER_OFFLOAD,
    HF_FLASH_ATTENTION,
    HF_FLASH_OFFLOAD,
    QUEST,
    SHADOWKV,
    SINGLE_REQUEST_ENGINES,
    SPECONTEXT,
    SPECONTEXT_C1,
    SPECONTEXT_C1_C2,
    SPECONTEXT_C1_C2_C3,
    EngineSpec,
    OffloadPolicy,
    PreprocessKind,
    RetrievalKind,
    engine_by_name,
)
from repro.perf.simulate import (
    DEFAULT_OVERLAP,
    RETRIEVAL_HEAD_BYTES,
    GenerationTimeline,
    PerfSimulator,
    StepSample,
    Workload,
)

__all__ = [
    "ABLATION_ENGINES",
    "CLOUD_ENGINES",
    "CLUSTERKV",
    "FLASHINFER",
    "HF_EAGER",
    "HF_EAGER_OFFLOAD",
    "HF_FLASH_ATTENTION",
    "HF_FLASH_OFFLOAD",
    "QUEST",
    "SHADOWKV",
    "SINGLE_REQUEST_ENGINES",
    "SPECONTEXT",
    "SPECONTEXT_C1",
    "SPECONTEXT_C1_C2",
    "SPECONTEXT_C1_C2_C3",
    "DEFAULT_OVERLAP",
    "EngineSpec",
    "GenerationTimeline",
    "OffloadPolicy",
    "PerfSimulator",
    "PreprocessKind",
    "RETRIEVAL_HEAD_BYTES",
    "RetrievalKind",
    "StepSample",
    "Workload",
    "engine_by_name",
    "max_fitting_batch",
]
