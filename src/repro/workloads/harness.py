"""Accuracy-evaluation harness: run selection policies on benchmark tasks.

Selection only affects the *decode* phase, so the harness prefills each
prompt once and decodes on cloned caches under every (policy, budget)
combination — a large saving when sweeping engines x budgets (Fig. 8/9).

The decode loop mirrors the greedy reference ``TransformerLM.generate(...,
sparse_from_first_token=True)``: the final prompt token is decoded as the
first policy-governed step, so selection affects every generated token —
SpeContext's dataflow, applied uniformly to all engines for fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.retrieval_head import (
    LightweightRetrievalHead,
    RetrievalHeadConfig,
)
from repro.kvcache.cache import ModelKVCache
from repro.models.llm import SelectionPolicy, TransformerLM
from repro.models.tokenizer import SyntheticTokenizer
from repro.retrieval.registry import make_policy
from repro.workloads.base import QAExample
from repro.workloads.metrics import count_score, token_f1


@dataclass
class PreparedPrompt:
    """A prompt with ``prompt[:-1]`` prefilled into a reusable cache."""

    prompt_ids: np.ndarray
    cache: ModelKVCache

    @property
    def pending_token(self) -> int:
        """The final prompt token, decoded as the first policy step."""
        return int(self.prompt_ids[-1])


@dataclass
class DecodeOutput:
    """Result of one policy-governed decode."""

    token_ids: list[int]
    stopped: bool
    selections: list[dict[int, np.ndarray]] = field(default_factory=list)
    attention_trace: list[list[np.ndarray]] = field(default_factory=list)


def prepare_prompt(model: TransformerLM, prompt_ids: np.ndarray) -> PreparedPrompt:
    """Prefill everything but the last prompt token."""
    prompt_ids = np.asarray(prompt_ids)
    if prompt_ids.ndim != 1 or prompt_ids.size < 2:
        raise ValueError("prompt must be 1-D with at least 2 tokens")
    cache = model.new_cache()
    model.prefill(prompt_ids[:-1], cache)
    return PreparedPrompt(prompt_ids=prompt_ids, cache=cache)


def decode_with_policy(
    model: TransformerLM,
    prepared: PreparedPrompt,
    policy: SelectionPolicy | None,
    max_new_tokens: int,
    stop_ids: tuple[int, ...] = (),
    capture_attention: bool = False,
) -> DecodeOutput:
    """Decode from a cloned cache under ``policy`` (None = full attention)."""
    cache = prepared.cache.clone()
    if policy is not None:
        policy.begin_generation(prepared.prompt_ids[:-1], cache)
    out = DecodeOutput(token_ids=[], stopped=False)
    pending = prepared.pending_token
    for step in range(max_new_tokens):
        if policy is not None:
            policy.pre_step(step, pending, cache)
        logits, selections, attn = model.decode_step(
            pending, cache, policy=policy, capture_attention=capture_attention
        )
        out.selections.append(selections)
        if capture_attention:
            out.attention_trace.append(attn)
        token = int(np.argmax(logits))
        out.token_ids.append(token)
        if token in stop_ids:
            out.stopped = True
            break
        pending = token
    return out


# ---- engine -> policy registry --------------------------------------------------


class PolicyBench:
    """Binds a model (and its retrieval head) to the policy registry.

    The names match the engines of the paper's accuracy figures; "Ours"
    uses the head-level retrieval head, "Ours(batch)" the coarse
    batch-level ablation of Sec. 4.2. Construction is delegated to
    :func:`repro.retrieval.registry.make_policy` — the bench only supplies
    the retrieval head, and every policy gets its own session view of it,
    so a score never depends on which examples or engines ran before.
    """

    # figure-engine name -> (registry name, extra make_policy opts)
    _ENGINES: dict[str, tuple[str, dict]] = {
        "Full": ("full", {}),
        "Quest": ("quest", {}),
        "ClusterKV": ("clusterkv", {}),
        "ShadowKV": ("shadowkv", {}),
        "StreamingLLM": ("streaming", {}),
        "H2O": ("h2o", {}),
        "SlidingWindow": ("sliding", {}),
        "Ours": ("specontext", {"level": "head"}),
        "Ours(batch)": ("specontext", {"level": "batch"}),
    }

    def __init__(
        self,
        model: TransformerLM,
        tokenizer: SyntheticTokenizer,
        head_rng: np.random.Generator | None = None,
        head_config: RetrievalHeadConfig | None = None,
    ):
        self.model = model
        self.tokenizer = tokenizer
        rng = head_rng or np.random.default_rng(0)
        self.head = LightweightRetrievalHead.from_teacher(
            model.weights, tokenizer.bos_id, rng, config=head_config
        )

    def available(self) -> list[str]:
        return list(self._ENGINES)

    def policy(self, engine: str, budget: int) -> SelectionPolicy | None:
        """Fresh policy instance for one decode run (None = full attention)."""
        if engine == "Full":
            return None
        try:
            name, opts = self._ENGINES[engine]
        except KeyError:
            raise KeyError(
                f"unknown engine {engine!r}; available: {self.available()}"
            ) from None
        if name == "specontext":
            opts = {**opts, "head": self.head}
        return make_policy(name, self.model, budget, **opts)


# ---- QA scoring ------------------------------------------------------------------


def score_qa(example: QAExample, generated: list[int]) -> float:
    """Task-appropriate score in [0, 1] for one generation."""
    if example.task == "passage_count":
        true_count = example.meta["true_count"]
        stop = set(example.stop_ids)
        enumerated = []
        for token in generated:
            if token in stop:
                break
            enumerated.append(token)
        # Enumerated ids + the starting id named in the question.
        predicted = len(set(enumerated)) + 1
        return count_score(predicted, true_count)
    gold = [t for t in example.answer_ids if t not in example.stop_ids]
    pred = [t for t in generated if t not in example.stop_ids]
    return token_f1(pred, gold)


def evaluate_qa(
    model: TransformerLM,
    bench: PolicyBench,
    examples: list[QAExample],
    engine: str,
    budget: int,
) -> float:
    """Mean score of one engine at one budget over ``examples``."""
    scores = []
    for example in examples:
        prepared = prepare_prompt(model, example.prompt_ids)
        policy = bench.policy(engine, budget)
        out = decode_with_policy(
            model, prepared, policy, example.max_new_tokens, example.stop_ids
        )
        scores.append(score_qa(example, out.token_ids))
    return float(np.mean(scores))


def sweep_qa(
    model: TransformerLM,
    bench: PolicyBench,
    examples: list[QAExample],
    engines: list[str],
    budgets: list[int],
) -> dict[tuple[str, int], float]:
    """Engine x budget accuracy sweep with one shared prefill per example.

    Prefill dominates the functional models' cost and is identical for all
    policies, so each example is prefilled once and decoded per cell.
    """
    per_cell: dict[tuple[str, int], list[float]] = {
        (engine, budget): [] for engine in engines for budget in budgets
    }
    for example in examples:
        prepared = prepare_prompt(model, example.prompt_ids)
        for engine in engines:
            for budget in budgets:
                policy = bench.policy(engine, budget)
                out = decode_with_policy(
                    model, prepared, policy, example.max_new_tokens, example.stop_ids
                )
                per_cell[(engine, budget)].append(score_qa(example, out.token_ids))
    return {cell: float(np.mean(scores)) for cell, scores in per_cell.items()}
