"""Public request-level serving API.

The canonical entry points of the system:

- :class:`EngineConfig` / :class:`SamplingParams` — engine-level and
  request-level configuration;
- :class:`GenerationRequest` / :class:`GenerationOutput` — the
  request/response pair the continuous-batching server speaks, with the
  per-request :class:`GenerationStats` (tokens, budget, bytes over PCIe,
  selection overlap, offload events) on every output;
- :func:`repro.retrieval.registry.make_policy` — the single factory that
  resolves KV-selection policies by name;
- :class:`repro.serving.server.SpeContextServer` — the continuous-batching
  server itself, also the one-request entry point (imported from
  :mod:`repro.serving` to keep this package dependency-free).

Typical flow::

    from repro.api import EngineConfig, GenerationRequest, SamplingParams
    from repro.serving import SpeContextServer

    server = SpeContextServer(model, EngineConfig(budget=96, bos_id=bos))
    server.add_request(GenerationRequest(prompt, SamplingParams(8)))
    outputs = server.run()
"""

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.errors import (
    ConfigValidationError,
    DeadlineExceededError,
    EmptyPromptError,
    EngineUnavailableError,
    InvalidPromptError,
    InvalidSamplingError,
    OverloadedError,
    PromptTooLongError,
    RequestValidationError,
    UnknownPolicyError,
)
from repro.api.request import GenerationOutput, GenerationRequest, GenerationStats

__all__ = [
    "ClusterConfig",
    "ConfigValidationError",
    "DeadlineExceededError",
    "EmptyPromptError",
    "EngineConfig",
    "EngineUnavailableError",
    "GenerationOutput",
    "GenerationRequest",
    "GenerationStats",
    "InvalidPromptError",
    "InvalidSamplingError",
    "OverloadedError",
    "PromptTooLongError",
    "RequestValidationError",
    "SamplingParams",
    "UnknownPolicyError",
]
