"""SpeContextEngine: the end-to-end system on the functional substrate.

Combines the three contributions around a :class:`TransformerLM`:

1. the lightweight retrieval head selects the KV budget before every
   decode step (C1),
2. selections feed elastic-loading transfer accounting (C2),
3. an adaptive memory manager walks the Algorithm-1 thresholds as the
   sequence grows and logs per-layer offload events (C3).

The engine runs real numpy inference (accuracy is genuine); system-side
quantities (bytes over PCIe, overlap, offload schedule) are produced by the
same components the timing simulator uses, so the functional path and the
performance experiments cannot drift apart.

``generate()`` is a convenience wrapper: it submits one ordinary
``policy="specontext"`` :class:`~repro.api.request.GenerationRequest` to a
private :class:`~repro.serving.server.SpeContextServer`, whose retrieval
head and Algorithm-1 thresholds are built once and serve every call.
Multi-request callers should use the server directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.config import EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.core.adaptive import OffloadEvent
from repro.models.llm import DecodeResult, TransformerLM


@dataclass
class GenerationStats:
    """Output of one engine run: tokens plus system accounting."""

    result: DecodeResult
    budget: int
    bytes_transferred: int = 0
    transfer_reduction: float = 0.0
    mean_selection_overlap: float = 0.0
    offload_events: list[OffloadEvent] = field(default_factory=list)
    preemptions: int = 0
    swap_bytes: int = 0
    prefix_reused_tokens: int = 0

    @property
    def text_token_ids(self) -> list[int]:
        return self.result.token_ids


class SpeContextEngine:
    """Long-context generation with speculative context sparsity."""

    def __init__(self, model: TransformerLM, config: EngineConfig):
        # Imported lazily: repro.serving.server depends on repro.core.*,
        # so a module-level import here would be circular.
        from repro.serving.server import SpeContextServer

        if config.bos_id is None:
            raise ValueError("SpeContextEngine needs EngineConfig.bos_id")
        self.model = model
        self.config = config
        self.server = SpeContextServer(model, config)  # inspection/metering
        self.head = self.server.head

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        stop_ids: tuple[int, ...] = (),
        temperature: float = 0.0,
        seed: int | None = None,
    ) -> GenerationStats:
        """Generate with retrieval-head sparsity; returns tokens + stats.

        One request through the server. The private server's history/meter
        reflect only the latest call, so repeated generation doesn't
        accumulate bookkeeping.
        """
        self.server.clear_history()
        self.server.add_request(
            GenerationRequest(
                prompt_ids=np.asarray(prompt_ids),
                sampling=SamplingParams(
                    max_new_tokens=max_new_tokens,
                    temperature=temperature,
                    stop_ids=tuple(stop_ids),
                    seed=seed,
                ),
                policy="specontext",
            )
        )
        [output] = self.server.run()
        return output.stats

    def pruning_ratio(self, full_dlm_parameters: int) -> float:
        """Parameter reduction of the retrieval head vs the full DLM."""
        kept = self.head.parameter_count()
        if full_dlm_parameters <= 0:
            raise ValueError("full_dlm_parameters must be positive")
        return 1.0 - kept / full_dlm_parameters
