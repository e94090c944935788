"""Figure 5(a): head-level vs batch-level retrieval similarity.

Two curves over the budget axis:

- *attention-weight accumulation*: how much of the teacher LLM's true
  attention mass the retrieval head's selection covers — computed by
  capturing the teacher's decode attention and summing it over the
  selected positions;
- *hit rate*: how often decoding under the selection reproduces the token
  full attention would generate.

The paper's conclusion, reproduced here: head-level selection dominates
batch-level at every budget, which is why the lightweight retrieval head
keeps per-head Top-K.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, make_functional_setup, register
from repro.models.config import AttentionKind
from repro.workloads.harness import prepare_prompt
from repro.workloads.longbench import make_trivia

BUDGETS = (32, 64, 128, 256, 512)


def _accumulation(setup, prepared, example, budget: int, level: str) -> float:
    """Mean teacher attention mass covered by the head's selection."""
    # Capture the teacher's full attention on a full-attention decode.
    full = setup.model.generate(
        prepared.prompt_ids, example.max_new_tokens, None, example.stop_ids,
        capture_attention=True, prefilled=prepared.cache.clone(),
    )
    head = setup.bench.head
    cfg = setup.config
    prompt = prepared.prompt_ids
    head.reset()
    head.observe(prompt[:-1])

    masses = []
    pending = prepared.pending_token
    for step, per_layer in enumerate(full.attention_trace):
        if len(head) > budget:
            selection = head.select(pending, budget, level=level)
            # Teacher mass over selected positions, layer-1 weights
            # (steady-state layers carry the induction circuit).
            weights = per_layer[min(1, len(per_layer) - 1)]
            seq = weights.shape[-1]
            for kv_head in range(selection.shape[0]):
                idx = selection[kv_head]
                idx = idx[idx < seq]
                if cfg.attention in (AttentionKind.MHA, AttentionKind.MLA):
                    w = weights[kv_head]
                else:
                    group = cfg.group_size
                    w = weights[kv_head * group : (kv_head + 1) * group].max(axis=0)
                masses.append(float(w[idx].sum() / max(w.sum(), 1e-12)))
        head.observe(pending)
        if step < len(full.token_ids):
            pending = full.token_ids[step]
    return float(np.mean(masses)) if masses else 1.0


def _hit_rate(setup, prepared, example, budget: int, level: str) -> float:
    """Token agreement between sparse and full decoding."""
    full = setup.model.generate(
        prepared.prompt_ids, example.max_new_tokens, None, example.stop_ids,
        prefilled=prepared.cache.clone(),
    )
    if level == "head":
        policy = setup.bench.policy("Ours", budget)
    else:
        policy = setup.bench.policy("Ours(batch)", budget)
    sparse = setup.model.generate(
        prepared.prompt_ids, example.max_new_tokens, policy, example.stop_ids,
        prefilled=prepared.cache.clone(),
    )
    n = max(len(full.token_ids), 1)
    hits = sum(1 for a, b in zip(full.token_ids, sparse.token_ids) if a == b)
    return hits / n


@register("fig05")
def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 5(a)."""
    setup = make_functional_setup(seed=seed)
    rng = np.random.default_rng(seed + 55)
    budgets = BUDGETS[:3] if quick else BUDGETS
    n_examples = 1 if quick else 3
    context_len = 512 if quick else 1024

    examples = [
        make_trivia(
            setup.tokenizer, rng, context_len=context_len,
            n_distractors=16 if quick else 40, answer_len=4,
        )
        for _ in range(n_examples)
    ]
    prepared = [prepare_prompt(setup.model, ex.prompt_ids) for ex in examples]

    result = ExperimentResult(
        experiment_id="fig05",
        title="Figure 5(a): head-level vs batch-level selection quality",
        headers=["Metric", "Level"] + [f"B={b}" for b in budgets],
        precision=3,
    )
    for metric, fn in (
        ("attention-accumulation", _accumulation),
        ("hit-rate", _hit_rate),
    ):
        for level in ("head", "batch"):
            row: list = [metric, level]
            for budget in budgets:
                values = [
                    fn(setup, prep, ex, budget, level)
                    for prep, ex in zip(prepared, examples)
                ]
                row.append(round(float(np.mean(values)), 3))
            result.rows.append(row)
    result.notes.append(
        "head-level curves should dominate batch-level at every budget "
        "(the Sec. 4.2 finding motivating per-head Top-K)"
    )
    return result
