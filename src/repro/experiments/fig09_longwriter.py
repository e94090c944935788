"""Figure 9 + Table 4: LongWriter quality scores in the reasoning scenario.

Three functional model families stand in for the paper's Llama3-8B,
DeepSeek-Distill-Llama-8B and Qwen3-8B (the third uses MLA attention, for
which the layer-wise baselines have no public support — mirroring the '-'
cells of the paper). Outputs are judged on six dimensions by the
deterministic judge; the key reproduced phenomenon: baselines that retain
all newly generated KV produce budget-independent outputs (their tiny
prompts fit any budget), while Ours varies with budget and approaches the
full-attention score as the budget grows.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    FunctionalSetup,
    make_functional_setup,
    register,
)
from repro.models.config import AttentionKind
from repro.workloads.harness import prepare_prompt
from repro.workloads.judge import DIMENSIONS, judge_generation, mean_scores
from repro.workloads.longwriter import generate_writing_examples

# Scaled budget axis: 32/64/128 here ~ the paper's 1024/2048/4096 (the
# writing contexts are ~250 tokens vs the paper's multi-thousand).
WRITER_BUDGETS = (32, 64, 128)
PAPER_WRITER_LABELS = {32: 1024, 64: 2048, 128: 4096}
BASELINES = ("Quest", "ClusterKV", "ShadowKV")

MODEL_FAMILIES = (
    ("llama-like", AttentionKind.GQA, 0),
    ("deepseek-distill-like", AttentionKind.GQA, 7),
    ("qwen-like(MLA)", AttentionKind.MLA, 13),
)


def _evaluate(
    setup: FunctionalSetup,
    examples,
    engine: str,
    budget: int,
):
    scores = []
    for example in examples:
        prepared = prepare_prompt(setup.model, example.prompt_ids)
        policy = None if engine == "Full" else setup.bench.policy(engine, budget)
        out = setup.model.generate(
            prepared.prompt_ids, example.max_new_tokens, policy, example.stop_ids,
            prefilled=prepared.cache.clone(),
        )
        scores.append(judge_generation(out.token_ids, example))
    return mean_scores(scores)


@register("fig09")
def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 9 / Table 4."""
    n_examples = 1 if quick else 4
    budgets = WRITER_BUDGETS[:2] if quick else WRITER_BUDGETS
    families = MODEL_FAMILIES[:1] if quick else MODEL_FAMILIES

    result = ExperimentResult(
        experiment_id="fig09",
        title="Figure 9 / Table 4: LongWriter six-dimension judge scores",
        headers=["Model", "Engine", "Budget (~paper)"]
        + [d for d in DIMENSIONS]
        + ["Average"],
    )
    for family, attention, fam_seed in families:
        setup = make_functional_setup(
            attention=attention, seed=seed + fam_seed, n_layers=2
        )
        rng = np.random.default_rng(seed + fam_seed + 500)
        examples = generate_writing_examples(
            setup.tokenizer,
            rng,
            n_examples,
            n_sections=4 if quick else 8,
            section_len=6 if quick else 10,
            prompt_len=96 if quick else 160,
        )

        full = _evaluate(setup, examples, "Full", 0)
        result.rows.append(
            [family, "Full Attn", "-"]
            + [round(v, 2) for v in full.as_dict().values()]
            + [round(full.average, 2)]
        )
        mla = attention is AttentionKind.MLA
        for budget in budgets:
            for engine in BASELINES:
                if mla:
                    # The layer-wise baselines have no MLA support (the
                    # paper's 'None Support' cells).
                    continue
                score = _evaluate(setup, examples, engine, budget)
                result.rows.append(
                    [family, engine, f"{budget} (~{PAPER_WRITER_LABELS[budget]})"]
                    + [round(v, 2) for v in score.as_dict().values()]
                    + [round(score.average, 2)]
                )
            ours = _evaluate(setup, examples, "Ours", budget)
            result.rows.append(
                [family, "Ours", f"{budget} (~{PAPER_WRITER_LABELS[budget]})"]
                + [round(v, 2) for v in ours.as_dict().values()]
                + [round(ours.average, 2)]
            )
    result.notes.append(
        "baseline scores are budget-independent because the ~100-token "
        "prompts fit inside every budget while generated KV is fully "
        "retained (the paper's Sec. 7.2.2 observation)"
    )
    return result
