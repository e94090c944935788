"""Batch capacity under memory limits for multi-request serving.

The paper reports each engine at a chosen request count (Table 3's grey
numbers, :data:`repro.experiments.table3_throughput.PAPER_BATCHES`); this
module answers the question behind them: the largest candidate batch an
engine can admit without OOM. Engines whose public kernels are
single-request (Quest, ClusterKV) are capped at batch 1.
"""

from __future__ import annotations

from repro.perf.engines import EngineSpec
from repro.perf.simulate import PerfSimulator, Workload

DEFAULT_CANDIDATES = (1, 2, 4, 6, 8, 16, 32, 64)


def max_fitting_batch(
    sim: PerfSimulator,
    engine: EngineSpec,
    in_len: int,
    out_len: int,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
) -> int:
    """Largest candidate batch that does not OOM (0 if none fit)."""
    best = 0
    for batch in candidates:
        if engine.supports_multi_request is False and batch > 1:
            break
        if not sim.oom_reason(engine, Workload(in_len, out_len, batch)):
            best = batch
    return best
