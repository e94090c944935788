"""Policy registry: resolve every KV-selection policy through one factory.

Before this module existed, the seven baselines and SpeContext's own
policy lived in parallel class hierarchies that every experiment wired up
by hand. :func:`make_policy` is now the single construction path::

    policy = make_policy("quest", model, budget=256, page_size=16)
    policy = make_policy("specontext", model, budget=256, head=head)

Canonical names (one per paper engine): ``specontext``, ``quest``,
``h2o``, ``shadowkv``, ``clusterkv``, ``streaming``, ``sliding``,
``full``. Display aliases used by the figures ("Ours", "StreamingLLM",
"SlidingWindow", ...) resolve to the same builders, case-insensitively.

MLA models: the K-cache baselines raise ``NotImplementedError`` at
construction (the paper's "None Support" cells); ``specontext``, ``full``,
``streaming`` and ``sliding`` work on any attention kind.
"""

from __future__ import annotations

from typing import Callable

from repro.api.errors import UnknownPolicyError
from repro.core.retrieval_head import LightweightRetrievalHead, SpeContextPolicy
from repro.models.llm import SelectionPolicy, TransformerLM
from repro.retrieval.clusterkv import ClusterKVPolicy
from repro.retrieval.full import FullAttentionPolicy
from repro.retrieval.h2o import H2OPolicy
from repro.retrieval.quest import QuestPolicy
from repro.retrieval.shadowkv import ShadowKVPolicy
from repro.retrieval.sliding import SlidingWindowPolicy
from repro.retrieval.streaming import StreamingLLMPolicy

PolicyBuilder = Callable[..., SelectionPolicy]

_REGISTRY: dict[str, PolicyBuilder] = {}
_ALIASES: dict[str, str] = {}


def register_policy(
    name: str, *aliases: str
) -> Callable[[PolicyBuilder], PolicyBuilder]:
    """Decorator adding a builder under ``name`` (plus display aliases)."""

    def deco(builder: PolicyBuilder) -> PolicyBuilder:
        key = _normalize(name)
        if key in _REGISTRY:
            raise ValueError(f"duplicate policy name {name!r}")
        _REGISTRY[key] = builder
        for alias in aliases:
            _ALIASES[_normalize(alias)] = key
        return builder

    return deco


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "").replace("_", "")


def available_policies() -> tuple[str, ...]:
    """Canonical policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_policy_name(name: str) -> str:
    """Canonical name for ``name`` (alias- and case-insensitive)."""
    key = _normalize(name)
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; available: {list(available_policies())}"
        )
    return key


def make_policy(
    name: str, model: TransformerLM, budget: int, **opts
) -> SelectionPolicy:
    """Build the selection policy ``name`` for ``model`` at ``budget``.

    ``opts`` are forwarded to the concrete policy (e.g. ``page_size`` for
    quest, ``n_sinks`` for streaming, ``head``/``level`` for
    specontext). Raises the typed ``UnknownPolicyError`` (a ``KeyError``)
    for unknown names and ``NotImplementedError`` when a K-cache baseline
    meets an MLA model.
    """
    return _REGISTRY[resolve_policy_name(name)](model, budget, **opts)


# ---- builders ------------------------------------------------------------------


@register_policy("specontext", "ours", "spe")
def _build_specontext(
    model: TransformerLM,
    budget: int,
    head: LightweightRetrievalHead,
    level: str = "head",
) -> SpeContextPolicy:
    """SpeContext's policy over a fresh session view of ``head``.

    The view shares every weight array with ``head`` and owns its K cache,
    so any number of concurrent policies can be built from one head.
    """
    return SpeContextPolicy(head.view(), budget, level=level)


@register_policy("quest")
def _build_quest(model: TransformerLM, budget: int, **opts) -> QuestPolicy:
    return QuestPolicy(model, budget, **opts)


@register_policy("h2o")
def _build_h2o(model: TransformerLM, budget: int, **opts) -> H2OPolicy:
    return H2OPolicy(model, budget, **opts)


@register_policy("shadowkv")
def _build_shadowkv(model: TransformerLM, budget: int, **opts) -> ShadowKVPolicy:
    return ShadowKVPolicy(model, budget, **opts)


@register_policy("clusterkv")
def _build_clusterkv(model: TransformerLM, budget: int, **opts) -> ClusterKVPolicy:
    return ClusterKVPolicy(model, budget, **opts)


@register_policy("streaming", "streamingllm")
def _build_streaming(
    model: TransformerLM, budget: int, **opts
) -> StreamingLLMPolicy:
    return StreamingLLMPolicy(budget, **opts)


@register_policy("sliding", "slidingwindow")
def _build_sliding(
    model: TransformerLM, budget: int, **opts
) -> SlidingWindowPolicy:
    return SlidingWindowPolicy(budget, **opts)


@register_policy("full", "fullattn", "fullattention")
def _build_full(model: TransformerLM, budget: int, **opts) -> FullAttentionPolicy:
    return FullAttentionPolicy(**opts)
