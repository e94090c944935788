"""Typed request-validation errors shared by the server and HTTP frontend.

One validation vocabulary for every submission surface:
:meth:`repro.serving.server.SpeContextServer.add_request`, the executor
layer (:mod:`repro.serving.engine`) and the OpenAI-style HTTP frontend
(:mod:`repro.serving.http`) all raise (or forward) these instead of bare
``ValueError``/``KeyError``/asserts, so callers can branch on the *kind*
of rejection and the HTTP layer can map each one to a structured 4xx
without string matching.

Every class subclasses :class:`ValueError` (and
:class:`UnknownPolicyError` additionally :class:`KeyError`), so existing
callers catching the untyped exceptions keep working unchanged.

Attributes carried by every error:

- ``code``: stable machine-readable slug (OpenAI-style ``error.code``);
- ``http_status``: the status the HTTP frontend answers with;
- ``message``: the human-readable reason (OpenAI-style ``error.message``).
"""

from __future__ import annotations

from repro.utils.registry import UnknownNameError

__all__ = [
    "RequestValidationError",
    "EmptyPromptError",
    "InvalidPromptError",
    "InvalidSamplingError",
    "PromptTooLongError",
    "UnknownPolicyError",
    "ConfigValidationError",
    "OverloadedError",
    "DeadlineExceededError",
    "EngineUnavailableError",
]


class _MessageMixin:
    """Shared by every error here: ``message`` is the client-facing text."""

    @property
    def message(self) -> str:
        """The human-readable reason (first positional arg)."""
        return str(self.args[0]) if self.args else self.__class__.__name__


class RequestValidationError(_MessageMixin, ValueError):
    """A request was rejected at validation; the engine state is untouched."""

    code = "invalid_request_error"
    http_status = 400


class EmptyPromptError(RequestValidationError):
    """Prompt missing, empty, whitespace-only, or not a 1-D token array."""

    code = "empty_prompt"


class InvalidPromptError(RequestValidationError):
    """Prompt ids are not integers, or fall outside the model's vocabulary."""

    code = "invalid_prompt"


class InvalidSamplingError(RequestValidationError):
    """Sampling parameters out of range (max_new_tokens, temperature, top_p)."""

    code = "invalid_sampling_params"


class PromptTooLongError(RequestValidationError):
    """Request cannot fit the model's positions or the KV pool, even alone."""

    code = "prompt_too_long"


class UnknownPolicyError(UnknownNameError, RequestValidationError):
    """Named KV-selection policy is not in the registry.

    Also an :class:`~repro.utils.registry.UnknownNameError` (hence a
    :class:`KeyError`): the policy registry raises it like every other
    registry raises its own typed error.
    """

    code = "unknown_policy"
    kind = "policy"


class ConfigValidationError(RequestValidationError):
    """An ``EngineConfig``/``ClusterConfig`` numeric field is out of range.

    Raised at config construction instead of letting a negative heartbeat
    or NaN pace crash deep inside a worker loop. Still a ``ValueError``
    (via :class:`RequestValidationError`), so callers catching the old
    untyped rejections keep working.
    """

    code = "invalid_config"


class OverloadedError(_MessageMixin, RuntimeError):
    """Admission control shed the request; retry after backoff.

    Raised by :meth:`repro.serving.server.SpeContextServer.add_request`
    when the configured :class:`~repro.serving.policies
    .AdmissionController` judges the request doomed (queue too deep,
    token backlog too large, deadline infeasible). The engine state is
    untouched; the HTTP layer answers 429 with a ``Retry-After`` header
    built from :attr:`retry_after_s`.
    """

    code = "overloaded"
    http_status = 429

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(_MessageMixin, RuntimeError):
    """A request blew its TTFT or total deadline and was cancelled.

    ``kind`` is ``"ttft"`` (the first token never arrived in time; the
    HTTP layer answers 408) or ``"total"`` (generation started but could
    not finish in time; 504). The server frees the request's pool blocks
    and emits one terminal :class:`~repro.serving.server.StreamEvent`
    when it raises/records this.
    """

    code = "deadline_exceeded"

    def __init__(self, message: str, kind: str = "total"):
        super().__init__(message)
        if kind not in ("ttft", "total"):
            raise ValueError(f"deadline kind must be 'ttft' or 'total', got {kind!r}")
        self.kind = kind
        self.http_status = 408 if kind == "ttft" else 504


class EngineUnavailableError(_MessageMixin, RuntimeError):
    """No healthy worker can take the request (all replicas dead/draining)."""

    code = "engine_unavailable"
    http_status = 503
    retry_after_s = 1.0
