"""Request/response dataclasses for the request-level serving API.

A :class:`GenerationRequest` bundles a prompt with its sampling parameters
and (optionally) a per-request policy choice and budget; the server answers
with a :class:`GenerationOutput` carrying the generated tokens, the finish
reason and the full per-request :class:`~repro.core.engine.GenerationStats`
system accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.api.config import SamplingParams
from repro.api.errors import EmptyPromptError, RequestValidationError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.engine import GenerationStats


@dataclass
class GenerationRequest:
    """One generation request for the server.

    Plain data — names, numbers and seeds, never policy or generator
    objects — so every frontend accepts exactly the same requests and can
    pickle, resubmit or replay them bit-identically.

    Attributes:
        prompt_ids: 1-D token array (non-empty).
        sampling: decoding parameters (``seed`` drives temperature sampling).
        policy: selection policy for this request — a registry name (see
            :func:`repro.retrieval.registry.make_policy`) or None to use
            the engine config's default.
        budget: KV token budget; None uses the engine config's default.
        policy_opts: extra kwargs forwarded to ``make_policy`` (merged over
            the engine config's ``policy_opts``); ``specontext`` accepts
            ``level`` only — its retrieval head belongs to the server.
        priority: scheduling weight — higher values admit earlier and are
            preempted later under the "priority" scheduler; other
            schedulers ignore it. Ties break by arrival order.
        request_id: assigned by the server at submission.
    """

    prompt_ids: np.ndarray
    sampling: SamplingParams = field(default_factory=SamplingParams)
    policy: str | None = None
    budget: int | None = None
    policy_opts: dict = field(default_factory=dict)
    priority: int = 0
    request_id: int | None = None

    def __post_init__(self):
        self.prompt_ids = np.asarray(self.prompt_ids)
        self.validate()

    def validate(self) -> None:
        """Typed checks, run at construction and again by every frontend's
        ``add_request`` (fields are mutable in between)."""
        if self.prompt_ids.ndim != 1 or self.prompt_ids.size == 0:
            raise EmptyPromptError(
                "prompt_ids must be a non-empty 1-D token array"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.policy is not None and not isinstance(self.policy, str):
            raise RequestValidationError(
                "policy must be a registry name (or None for the engine "
                f"default), got {type(self.policy).__name__}; policy "
                "objects cannot be shipped to workers or replayed"
            )

    @property
    def prompt_len(self) -> int:
        return int(self.prompt_ids.size)


@dataclass
class GenerationOutput:
    """Server response for one finished request.

    ``finish_reason`` is "stop" when a stop id was emitted and "length"
    when the request exhausted ``max_new_tokens``.
    """

    request_id: int
    token_ids: list[int]
    finish_reason: str
    stats: "GenerationStats"

    @property
    def n_generated(self) -> int:
        return len(self.token_ids)
