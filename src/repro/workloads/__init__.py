"""Synthetic benchmark workloads, metrics, judge and evaluation harness.

- :mod:`repro.workloads.longbench` — LongBench-shaped QA tasks (trivia,
  2wikimqa, hotpotqa, passage_count) for the long-context *input* scenario.
- :mod:`repro.workloads.longwriter` — LongWriter-shaped writing tasks for
  the long-context *reasoning* scenario.
- :mod:`repro.workloads.metrics` — token F1, exact match, count score.
- :mod:`repro.workloads.judge` — deterministic six-dimension quality judge.
- :mod:`repro.workloads.harness` — shared-prefill policy evaluation.
"""

from repro.workloads.base import EntityPool, QAExample, weave_context
from repro.workloads.harness import (
    PolicyBench,
    PreparedPrompt,
    prepare_prompt,
    score_qa,
    sweep_qa,
)
from repro.workloads.judge import (
    DIMENSIONS,
    JudgeScore,
    judge_generation,
    mean_scores,
)
from repro.workloads.longbench import (
    TASKS,
    generate_examples,
    make_2wikimqa,
    make_hotpotqa,
    make_passage_count,
    make_trivia,
)
from repro.workloads.longwriter import (
    WritingExample,
    generate_writing_examples,
    make_writing_example,
)
from repro.workloads.metrics import (
    bigram_validity,
    count_score,
    distinct_ratio,
    exact_match,
    prefix_match,
    token_f1,
)

__all__ = [
    "DIMENSIONS",
    "EntityPool",
    "JudgeScore",
    "PolicyBench",
    "PreparedPrompt",
    "QAExample",
    "TASKS",
    "WritingExample",
    "bigram_validity",
    "count_score",
    "distinct_ratio",
    "exact_match",
    "generate_examples",
    "generate_writing_examples",
    "judge_generation",
    "make_2wikimqa",
    "make_hotpotqa",
    "make_passage_count",
    "make_trivia",
    "make_writing_example",
    "mean_scores",
    "prefix_match",
    "prepare_prompt",
    "score_qa",
    "sweep_qa",
    "token_f1",
    "weave_context",
]
