"""Computed work (flops, bytes) and isolated probes of module-level kernels.

``tensor.ops.linear_rows`` and ``softmax`` are module-level functions, so
they cannot be wrapped from outside without patching a module global; they
are timed here in isolation, at the shapes the workload actually runs, and
reported beside the work computed from those shapes (ECM style: measured
time next to predicted operations and bytes).
"""

from __future__ import annotations

import time

import numpy as np

from bench.stats import percentile


def flops_per_decode_token(config, budget: int) -> int:
    """Multiply-add flops (2 per MAC) of one decoded token, from shapes."""
    d, hd = config.d_model, config.head_dim
    hq, hkv = config.n_q_heads, config.n_kv_heads
    qkv = 2 * d * (hq + 2 * hkv) * hd
    attend = 2 * 2 * hq * hd * budget  # scores + weighted sum over the budget
    out = 2 * hq * hd * d
    ffn = 3 * 2 * d * config.d_ff
    head = 2 * d * config.vocab_size
    return config.n_layers * (qkv + attend + out + ffn) + head


def _time_calls(fn, calls: int = 200) -> list[float]:
    clock = time.perf_counter
    fn()  # first call pays allocation warm-up
    samples = []
    for _ in range(calls):
        start = clock()
        fn()
        samples.append(clock() - start)
    return samples


def tensor_probes(config, rows: int, budget: int) -> dict[str, dict]:
    """Time ``linear_rows`` and ``softmax`` at one workload's decode shapes.

    ``rows`` is the decode batch (sessions per wave); the GEMM is the FFN
    up-projection, the softmax is one layer's attention scores over the
    selection budget.
    """
    from repro.tensor.ops import linear_rows, softmax

    rng = np.random.default_rng(0)
    rows = max(int(rows), 1)
    x = rng.standard_normal((rows, config.d_model)).astype(np.float32)
    w = rng.standard_normal((config.d_ff, config.d_model)).astype(np.float32)
    group = config.n_q_heads // config.n_kv_heads
    scores = rng.standard_normal((rows, config.n_kv_heads, group, budget))
    out = linear_rows(x, w)
    linear_s = _time_calls(lambda: linear_rows(x, w))
    softmax_s = _time_calls(lambda: softmax(scores, axis=-1))
    return {
        "tensor.linear_rows": {
            "calls": len(linear_s),
            "time_s": sum(linear_s),
            "us_p50": percentile(linear_s, 50) * 1e6,
            "flops": 2 * rows * config.d_model * config.d_ff,
            "bytes": x.nbytes + w.nbytes + out.nbytes,
        },
        "tensor.softmax": {
            "calls": len(softmax_s),
            "time_s": sum(softmax_s),
            "us_p50": percentile(softmax_s, 50) * 1e6,
            "flops": 5 * scores.size,
            "bytes": 2 * scores.nbytes,
        },
    }


def flag_dispatch_bound(work: dict[str, dict], factor: float = 10.0) -> None:
    """Add ``ns_per_byte`` and ``dispatch_bound`` to every row with bytes.

    A layer whose time per computed byte is more than ``factor`` times the
    best layer's spends its time in Python dispatch, not in moving data.
    """
    for row in work.values():
        moved = row.get("bytes") or 0
        row["ns_per_byte"] = row["time_s"] * 1e9 / moved if moved else None
    rates = [r["ns_per_byte"] for r in work.values() if r["ns_per_byte"]]
    best = min(rates) if rates else None
    for row in work.values():
        rate = row["ns_per_byte"]
        row["dispatch_bound"] = bool(best and rate and rate > factor * best)
