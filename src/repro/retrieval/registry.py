"""Policy registry: resolve every KV-selection policy through one factory.

:data:`POLICIES` is the selection-policy :class:`~repro.utils.registry
.Registry`; :func:`make_policy`, :func:`resolve_policy_name` and
:func:`available_policies` are its bound methods and the single
construction path for the seven baselines and SpeContext's own policy::

    policy = make_policy("quest", model, budget=256, page_size=16)
    policy = make_policy("specontext", model, budget=256, head=head)

Canonical names (one per paper engine): ``specontext``, ``quest``,
``h2o``, ``shadowkv``, ``clusterkv``, ``streaming``, ``sliding``,
``full``. Display aliases used by the figures ("Ours", "StreamingLLM",
"SlidingWindow", ...) resolve to the same builders, case-, dash- and
underscore-insensitively; an unknown name raises the typed
:class:`~repro.api.errors.UnknownPolicyError` (a ``KeyError``).

MLA models: the K-cache baselines raise ``NotImplementedError`` at
construction (the paper's "None Support" cells); ``specontext``, ``full``,
``streaming`` and ``sliding`` work on any attention kind.
"""

from __future__ import annotations

from repro.api.errors import UnknownPolicyError
from repro.core.retrieval_head import LightweightRetrievalHead, SpeContextPolicy
from repro.models.llm import TransformerLM
from repro.retrieval.clusterkv import ClusterKVPolicy
from repro.retrieval.full import FullAttentionPolicy
from repro.retrieval.h2o import H2OPolicy
from repro.retrieval.quest import QuestPolicy
from repro.retrieval.shadowkv import ShadowKVPolicy
from repro.retrieval.sliding import SlidingWindowPolicy
from repro.retrieval.streaming import StreamingLLMPolicy
from repro.utils.registry import Registry

POLICIES = Registry(UnknownPolicyError)

available_policies = POLICIES.available
resolve_policy_name = POLICIES.resolve
# make_policy(name, model, budget, **opts): ``opts`` are forwarded to the
# concrete policy (``page_size`` for quest, ``n_sinks`` for streaming,
# ``head``/``level`` for specontext).
make_policy = POLICIES.make


# ---- builders ------------------------------------------------------------------


@POLICIES.register("specontext", "ours", "spe")
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


@POLICIES.register("quest")
def _build_quest(model: TransformerLM, budget: int, **opts) -> QuestPolicy:
    return QuestPolicy(model, budget, **opts)


@POLICIES.register("h2o")
def _build_h2o(model: TransformerLM, budget: int, **opts) -> H2OPolicy:
    return H2OPolicy(model, budget, **opts)


@POLICIES.register("shadowkv")
def _build_shadowkv(model: TransformerLM, budget: int, **opts) -> ShadowKVPolicy:
    return ShadowKVPolicy(model, budget, **opts)


@POLICIES.register("clusterkv")
def _build_clusterkv(model: TransformerLM, budget: int, **opts) -> ClusterKVPolicy:
    return ClusterKVPolicy(model, budget, **opts)


@POLICIES.register("streaming", "streamingllm")
def _build_streaming(
    model: TransformerLM, budget: int, **opts
) -> StreamingLLMPolicy:
    return StreamingLLMPolicy(budget, **opts)


@POLICIES.register("sliding", "slidingwindow")
def _build_sliding(
    model: TransformerLM, budget: int, **opts
) -> SlidingWindowPolicy:
    return SlidingWindowPolicy(budget, **opts)


@POLICIES.register("full", "fullattn", "fullattention")
def _build_full(model: TransformerLM, budget: int, **opts) -> FullAttentionPolicy:
    return FullAttentionPolicy(**opts)
