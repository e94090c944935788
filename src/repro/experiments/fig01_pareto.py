"""Figure 1: accuracy/throughput Pareto frontiers, input vs reasoning.

Each engine is a point (normalized accuracy, normalized throughput) in two
scenarios on the motivating RTX-4090 setup (4 requests, 16K context, model
KV pressure beyond 24GB):

(a) long-context *input*: accuracy from the synthetic LongBench trivia
    task; throughput from a [16K in, 1K out] mix;
(b) long-context *reasoning*: accuracy from the LongWriter judge;
    throughput from a [1K in, 8K out] mix.

Budgets {128, 256} map to the paper's {1024, 2048}. Full-attention engines
(HF, FlashAttention, FlashInfer) sit at accuracy 1.0 with low throughput;
SpeContext should push the frontier out in both panels — further in (b),
where the baselines' retained generated KV erases their sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, make_functional_setup, register
from repro.hardware.spec import DESKTOP_RTX4090
from repro.models.config import LLAMA_LIKE_8B
from repro.perf.engines import (
    CLUSTERKV,
    FLASHINFER,
    HF_EAGER_OFFLOAD,
    HF_FLASH_OFFLOAD,
    QUEST,
    SHADOWKV,
    SPECONTEXT,
    OffloadPolicy,
)
from repro.perf.simulate import PerfSimulator, Workload
from repro.workloads.harness import prepare_prompt, sweep_qa
from repro.workloads.judge import judge_generation, mean_scores
from repro.workloads.longbench import generate_examples
from repro.workloads.longwriter import generate_writing_examples

# The RTX 4090 cannot hold 4x16K KV plus the weights, so the
# full-attention engines run with complete KV offloading (the paper's
# "Model > 24GB" pressure is the point of the figure).
PERF_ENGINES = {
    "Huggingface": HF_EAGER_OFFLOAD,
    "FlashAttention": HF_FLASH_OFFLOAD,
    "FlashInfer": FLASHINFER.with_(
        name="FlashInfer(offload)", offload=OffloadPolicy.FULL_CPU
    ),
    "Quest": QUEST,
    "ClusterKV": CLUSTERKV,
    "ShadowKV": SHADOWKV,
    "Ours": SPECONTEXT,
}
FULL_ATTENTION = ("Huggingface", "FlashAttention", "FlashInfer")
ACCURACY_ENGINE = {
    "Quest": "Quest",
    "ClusterKV": "ClusterKV",
    "ShadowKV": "ShadowKV",
    "Ours": "Ours",
}
# Paper budgets {1024, 2048}, scaled per scenario context: the QA contexts
# are ~1K tokens (budgets 128/256), the writing contexts ~250 (budgets
# 32/64).
PAPER_BUDGETS = (1024, 2048)
INPUT_BUDGETS = (128, 256)
REASONING_BUDGETS = (32, 64)
INPUT_MIX = Workload(16384, 1024, 4)
REASONING_MIX = Workload(1024, 8192, 4)


def _throughputs(quick: bool) -> dict[str, dict[str, float]]:
    sim = PerfSimulator(LLAMA_LIKE_8B, DESKTOP_RTX4090, budget=2048)
    n_samples = 6 if quick else 24
    out: dict[str, dict[str, float]] = {"input": {}, "reasoning": {}}
    for name, engine in PERF_ENGINES.items():
        for scenario, mix in (("input", INPUT_MIX), ("reasoning", REASONING_MIX)):
            batch = 1 if not engine.supports_multi_request else mix.batch
            timeline = sim.simulate(
                engine, Workload(mix.in_len, mix.out_len, batch), n_samples=n_samples
            )
            # Aggregate throughput over the 4 requests; single-request
            # engines serve them sequentially, so their aggregate equals
            # their single-request rate.
            tps = 0.0 if timeline.oom else timeline.tokens_per_second
            out[scenario][name] = tps
    return out


def _input_accuracy(setup, quick: bool, seed: int) -> dict[tuple[str, int], float]:
    rng = np.random.default_rng(seed + 11)
    examples = generate_examples(
        "trivia",
        setup.tokenizer,
        rng,
        2 if quick else 5,
        context_len=512 if quick else 1024,
        n_distractors=16 if quick else 40,
        answer_len=4,
    )
    engines = ["Full"] + list(ACCURACY_ENGINE.values())
    return sweep_qa(
        setup.model, setup.bench, examples, engines, list(INPUT_BUDGETS)
    )


def _reasoning_accuracy(setup, quick: bool, seed: int) -> dict[tuple[str, int], float]:
    rng = np.random.default_rng(seed + 23)
    examples = generate_writing_examples(
        setup.tokenizer,
        rng,
        1 if quick else 3,
        n_sections=4 if quick else 8,
        section_len=6 if quick else 10,
        prompt_len=96 if quick else 160,
    )
    cells: dict[tuple[str, int], float] = {}
    for engine in ["Full"] + list(ACCURACY_ENGINE.values()):
        for budget in REASONING_BUDGETS:
            scores = []
            for example in examples:
                prepared = prepare_prompt(setup.model, example.prompt_ids)
                policy = (
                    None if engine == "Full" else setup.bench.policy(engine, budget)
                )
                out = setup.model.generate(
                    prepared.prompt_ids, example.max_new_tokens, policy,
                    example.stop_ids, prefilled=prepared.cache.clone(),
                )
                scores.append(judge_generation(out.token_ids, example))
            cells[(engine, budget)] = mean_scores(scores).average
    return cells


@register("fig01")
def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 1's two Pareto panels."""
    setup = make_functional_setup(seed=seed)
    throughput = _throughputs(quick)
    acc_input = _input_accuracy(setup, quick, seed)
    acc_reasoning = _reasoning_accuracy(setup, quick, seed)

    base_tps = {}
    for s in ("input", "reasoning"):
        positive = [v for v in throughput[s].values() if v > 0]
        base_tps[s] = throughput[s]["Huggingface"] or min(positive)
    full_acc = {
        "input": acc_input[("Full", INPUT_BUDGETS[-1])],
        "reasoning": acc_reasoning[("Full", REASONING_BUDGETS[-1])],
    }

    result = ExperimentResult(
        experiment_id="fig01",
        title="Figure 1: Pareto points (normalized accuracy, normalized "
        "throughput) on RTX4090, 4x16K requests",
        headers=[
            "Engine", "Budget (~paper)",
            "acc(input)", "thpt(input)",
            "acc(reasoning)", "thpt(reasoning)",
        ],
        precision=3,
    )
    for name in PERF_ENGINES:
        budget_idx = (len(PAPER_BUDGETS) - 1,) if name in FULL_ATTENTION else (0, 1)
        for i in budget_idx:
            if name in FULL_ATTENTION:
                a_in, a_re = 1.0, 1.0
                label = "-"
            else:
                acc_key = ACCURACY_ENGINE[name]
                a_in = acc_input[(acc_key, INPUT_BUDGETS[i])] / max(
                    full_acc["input"], 1e-9
                )
                a_re = acc_reasoning[(acc_key, REASONING_BUDGETS[i])] / max(
                    full_acc["reasoning"], 1e-9
                )
                label = f"~{PAPER_BUDGETS[i]}"
            t_in = throughput["input"][name] / max(base_tps["input"], 1e-9)
            t_re = throughput["reasoning"][name] / max(base_tps["reasoning"], 1e-9)
            result.rows.append(
                [name, label, round(a_in, 3), round(t_in, 2),
                 round(a_re, 3), round(t_re, 2)]
            )
    result.notes.append(
        "throughput normalized to Huggingface eager, per request; accuracy "
        "normalized to full attention (the paper's normalized axes)"
    )
    return result
