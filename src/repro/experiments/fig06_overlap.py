"""Figure 6: prefetch latency balance and adjacent-step selection overlap.

(a) Analytic: PCIe transfer latency of a budget-sized KV slice for one
    layer versus one layer's decode compute — the imbalance that makes
    naive prefetching transfer-bound (Sec. 5.2).
(b) Functional: mean overlap of the retrieval head's selections between
    adjacent decode steps (the paper measures >80%), which is what elastic
    loading converts into transfer savings.
"""

from __future__ import annotations

import numpy as np

from repro.core.elastic import ElasticTransferTracker
from repro.experiments.common import ExperimentResult, make_functional_setup, register
from repro.hardware.spec import CLOUD_A800
from repro.models.config import LLAMA_LIKE_8B
from repro.perf.engines import SPECONTEXT
from repro.perf.simulate import PerfSimulator
from repro.workloads.harness import prepare_prompt
from repro.workloads.longwriter import make_writing_example

ANALYTIC_BUDGETS = (32, 64, 128, 256, 512, 1024, 2048)
FUNCTIONAL_BUDGETS = (16, 32, 64, 128, 256)


@register("fig06")
def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 6(a) and (b)."""
    result = ExperimentResult(
        experiment_id="fig06",
        title="Figure 6: (a) prefetch vs layer latency; (b) adjacent-step "
        "selection overlap",
        headers=["Part", "KV budget", "Value"],
        precision=3,
    )

    # (a) per-layer budget transfer vs one layer's decode compute at 16K.
    sim = PerfSimulator(LLAMA_LIKE_8B, CLOUD_A800, budget=2048)
    layer_s = sim.layer_compute_seconds(SPECONTEXT, attended=2048, batch=1)
    kv_tok = LLAMA_LIKE_8B.kv_bytes_per_token_layer()
    budgets = ANALYTIC_BUDGETS[:4] if quick else ANALYTIC_BUDGETS
    for budget in budgets:
        transfer_s = sim.latency.transfer_seconds(budget * kv_tok)
        result.rows.append(
            ["prefetch-latency", budget, f"{transfer_s * 1e3:.3f} ms"]
        )
    result.rows.append(
        ["layer-inference", "-", f"{layer_s * 1e3:.3f} ms per layer"]
    )

    # (b) functional overlap on a long generation.
    setup = make_functional_setup(seed=seed)
    rng = np.random.default_rng(seed + 10)
    example = make_writing_example(
        setup.tokenizer,
        rng,
        n_sections=3 if quick else 8,
        section_len=6 if quick else 10,
        prompt_len=96 if quick else 160,
    )
    prepared = prepare_prompt(setup.model, example.prompt_ids)
    budgets_b = FUNCTIONAL_BUDGETS[:3] if quick else FUNCTIONAL_BUDGETS
    for budget in budgets_b:
        policy = setup.bench.policy("Ours", budget)
        setup.model.generate(
            prepared.prompt_ids, example.max_new_tokens, policy, example.stop_ids,
            prefilled=prepared.cache.clone(),
        )
        if len(policy.selection_history) < 2:
            # The budget covers the whole cache: no sparse steps occur.
            result.rows.append(
                ["selection-overlap", budget, "budget >= cache (full attention)"]
            )
            continue
        tracker = ElasticTransferTracker(bytes_per_token=kv_tok)
        for selection in policy.selection_history:
            tracker.observe(selection)
        overlap = tracker.mean_overlap
        saved = tracker.transfer_reduction_vs_full_reload()
        result.rows.append(
            ["selection-overlap", budget,
             f"{overlap:.2f} overlap, {saved:.0%} transfer saved"]
        )
    result.notes.append(
        "paper Fig. 6(b) reports >80% overlap between adjacent generations; "
        "elastic loading transfers only the complement"
    )
    return result
