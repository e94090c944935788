"""The metric tables: names, units, directions, bounds, and what moves what.

``BENCHMARK.json`` at the repo root is the contract the driver reads; it
carries the end-to-end metrics that are a number on *every* workload and
steady across seeds, plus every per-layer metric. This module is the full
table — it adds the end-to-end metrics the contract cannot carry
(``null`` on some workloads, exactly 0 or 1 when healthy, or varying with
the seed's text rather than with the code) and the layer → end-to-end map.
``bench/tests`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the base's median; absolute when ``absolute``
    absolute: bool = False
    in_contract: bool = True
    what: str = ""


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             what="workload-process start to the end of the first warm-up request; "
             "median over repeats"),
    EndToEnd("tokens_per_s", "1/s", "higher", 0.25,
             what="generated tokens / timed wall, best repeat"),
    EndToEnd("ttft_ms_p50", "ms", "lower", 0.25,
             what="time to first token from the due time; each repeat's median, best repeat"),
    EndToEnd("ttft_ms_p90", "ms", "lower", 0.20, in_contract=False,
             what="reported only with >= 100 pooled requests, else null"),
    EndToEnd("itl_ms_p50", "ms", "lower", 0.25,
             what="inter-token latency; a burst of m tokens after a wait g is m gaps of g/m; "
             "each repeat's median, best repeat"),
    EndToEnd("itl_ms_p99", "ms", "lower", 0.25, in_contract=False,
             what="needs >= 1000 pooled gaps; tail noise on 2 cores exceeds any bound <= 25%"),
    EndToEnd("request_ms_p50", "ms", "lower", 0.25,
             what="due time to last token; each repeat's median, best repeat"),
    EndToEnd("quality_score", "score", "higher", 0.0, absolute=True, in_contract=False,
             what="mean task score in [0,1]; deterministic per seed, compared exactly"),
    EndToEnd("slo_attainment", "share", "higher", 0.05, absolute=True, in_contract=False,
             what="share of requests sent within the frozen TTFT and token-gap limits"),
    EndToEnd("failed_share", "share", "lower", 0.0, absolute=True, in_contract=False,
             what="failed, refused or incorrect requests / requests sent"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             what="ru_maxrss of the workload process plus its waited-for children"),
)

# name -> (unit, better, end-to-end metric it should move, on which workload)
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "serving.http.parse_us_p50": ("us", "lower", "ttft_ms_p50", "http_stream"),
    "serving.http.requests": ("count", "higher", "ttft_ms_p50", "http_stream"),
    "serving.http.sse_chunks": ("count", "lower", "itl_ms_p50", "http_stream"),
    "serving.http.bytes_out": ("bytes", "lower", "itl_ms_p50", "http_stream"),
    "serving.http.ttft_overhead_ms_p50": ("ms", "lower", "ttft_ms_p50", "http_stream"),
    "serving.engine.spawn_s": ("s", "lower", "setup_s", "http_stream"),
    "serving.engine.add_request_ms_p50": ("ms", "lower", "ttft_ms_p50", "http_stream"),
    "serving.engine.step_ms_p50": ("ms", "lower", "itl_ms_p50", "http_stream"),
    "serving.engine.steps": ("count", "lower", "tokens_per_s", "http_stream"),
    "serving.engine.step_overhead_ms_p50": ("ms", "lower", "itl_ms_p50", "http_stream"),
    "serving.engine.step_result_pickle_bytes_p50": ("bytes", "lower", "itl_ms_p50", "http_stream"),
    "serving.placement.place_us_p50": ("us", "lower", "ttft_ms_p50", "http_stream"),
    "serving.placement.affinity_hit_rate": ("share", "higher", "ttft_ms_p50", "http_stream"),
    "serving.server.construct_ms": ("ms", "lower", "setup_s", "all"),
    "serving.server.add_request_us_p50": ("us", "lower", "ttft_ms_p50", "shared_prefix"),
    "serving.server.step_ms_p50": ("ms", "lower", "itl_ms_p50", "decode_heavy"),
    "serving.server.steps": ("count", "lower", "tokens_per_s", "spec_mixed"),
    "serving.server.decode_batch_mean": ("count", "higher", "tokens_per_s", "decode_heavy"),
    "serving.server.prefill_tokens": ("count", "lower", "ttft_ms_p50", "shared_prefix"),
    "serving.server.step_self_ms_p50": ("ms", "lower", "itl_ms_p50", "decode_heavy"),
    "serving.server.queue_wait_steps_p50": ("steps", "lower", "ttft_ms_p90", "shared_prefix"),
    "serving.server.preemptions": ("count", "lower", "tokens_per_s", "pool_pressure"),
    "serving.server.spec_acceptance_rate": ("share", "higher", "tokens_per_s", "spec_mixed"),
    "serving.server.tokens_per_spec_step": ("count", "higher", "tokens_per_s", "spec_mixed"),
    "core.retrieval_head.build_ms": ("ms", "lower", "ttft_ms_p50", "prefill_heavy"),
    "core.retrieval_head.begin_generation_ms_p50": ("ms", "lower", "ttft_ms_p50", "prefill_heavy"),
    "core.retrieval_head.pre_step_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "core.retrieval_head.pre_step_calls": ("count", "lower", "tokens_per_s", "decode_heavy"),
    "core.retrieval_head.pre_step_share": ("share", "lower", "tokens_per_s", "decode_heavy"),
    "core.retrieval_head.spec_commit_calls": ("count", "lower", "tokens_per_s", "spec_mixed"),
    "core.elastic.transfer_bytes": ("bytes", "lower", "request_ms_p50", "decode_heavy"),
    "core.elastic.transfer_reduction": ("share", "higher", "request_ms_p50", "decode_heavy"),
    "core.elastic.mean_overlap": ("share", "higher", "request_ms_p50", "decode_heavy"),
    "core.elastic.observe_us_p50": ("us", "lower", "request_ms_p50", "decode_heavy"),
    "core.adaptive.capacity_tokens": ("count", "higher", "setup_s", "all"),
    "core.adaptive.offload_events": ("count", "lower", "itl_ms_p50", "decode_heavy"),
    "core.adaptive.advance_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "kvcache.pool.construct_ms": ("ms", "lower", "setup_s", "all"),
    "kvcache.pool.read_us_p50": ("us", "lower", "ttft_ms_p50", "shared_prefix"),
    "kvcache.pool.read_calls": ("count", "lower", "ttft_ms_p50", "shared_prefix"),
    "kvcache.pool.prefix_hit_rate": ("share", "higher", "ttft_ms_p50", "shared_prefix"),
    "kvcache.pool.prefix_tokens_reused_share": ("share", "higher", "tokens_per_s", "shared_prefix"),
    "kvcache.pool.write_us_p50": ("us", "lower", "tokens_per_s", "pool_pressure"),
    "kvcache.pool.write_calls": ("count", "lower", "tokens_per_s", "pool_pressure"),
    "kvcache.pool.prefix_evictions": ("count", "lower", "tokens_per_s", "pool_pressure"),
    "kvcache.pool.peak_used_share": ("share", "lower", "tokens_per_s", "pool_pressure"),
    "kvcache.pool.spec_release_share": ("share", "lower", "tokens_per_s", "spec_mixed"),
    "kvcache.pool.share": ("share", "lower", "tokens_per_s", "pool_pressure"),
    "kvcache.pool.audit_ms": ("ms", "lower", "setup_s", "all"),
    "kvcache.cache.gather_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "kvcache.cache.gather_calls": ("count", "lower", "tokens_per_s", "decode_heavy"),
    "kvcache.cache.gather_share": ("share", "lower", "tokens_per_s", "decode_heavy"),
    "kvcache.cache.gather_bytes": ("bytes", "lower", "itl_ms_p50", "decode_heavy"),
    "models.llm.prefill_ms_per_ktoken": ("ms", "lower", "ttft_ms_p50", "prefill_heavy"),
    "models.llm.prefill_share": ("share", "lower", "tokens_per_s", "prefill_heavy"),
    "models.llm.decode_batch_ms_p50": ("ms", "lower", "itl_ms_p50", "decode_heavy"),
    "models.llm.decode_share": ("share", "lower", "itl_ms_p50", "decode_heavy"),
    "models.llm.decode_spec_ms_p50": ("ms", "lower", "tokens_per_s", "spec_mixed"),
    "models.llm.flops_per_decode_token": ("flop", "lower", "itl_ms_p50", "decode_heavy"),
    "models.attention.prefill_share": ("share", "lower", "tokens_per_s", "prefill_heavy"),
    "models.attention.decode_rows_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "models.attention.decode_rows_share": ("share", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.rope_apply_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.rope_apply_calls": ("count", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.rope_apply_bytes": ("bytes", "lower", "tokens_per_s", "prefill_heavy"),
    "tensor.linear_rows_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.linear_rows_flops": ("flop", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.softmax_us_p50": ("us", "lower", "itl_ms_p50", "decode_heavy"),
    "tensor.softmax_bytes": ("bytes", "lower", "tokens_per_s", "prefill_heavy"),
    "distill.dlm.draft_batch_ms_p50": ("ms", "lower", "tokens_per_s", "spec_mixed"),
    "distill.dlm.draft_share": ("share", "lower", "tokens_per_s", "spec_mixed"),
    "distill.dlm.drafted": ("count", "higher", "tokens_per_s", "spec_mixed"),
    "distill.dlm.accepted": ("count", "higher", "tokens_per_s", "spec_mixed"),
    "bench.trace_overhead": ("share", "lower", "tokens_per_s", "all"),
    "bench.residual_share": ("share", "lower", "tokens_per_s", "all"),
    "bench.client_overhead_ms_p50": ("ms", "lower", "ttft_ms_p50", "http_stream"),
    "bench.dispatch_bound_layers": ("count", "lower", "tokens_per_s", "all"),
    "bench.quality_score": ("score", "higher", "tokens_per_s", "all"),
}

CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.in_contract)

# Latency limits behind ``slo_attainment``: (TTFT ms, mean token gap ms) per
# workload, frozen at 3x the medians of the committed seed run
# (bench/results/seed.json). A tripwire, not a target.
SLO_LIMITS_MS: dict[str, tuple[float, float]] = {
    "decode_heavy": (3710.0, 49.0),
    "prefill_heavy": (580.0, 106.0),  # the two 1536-token prompts miss by design
    "shared_prefix": (900.0, 76.0),
    "pool_pressure": (3480.0, 56.0),
    "spec_mixed": (2210.0, 113.0),
    "http_stream": (55.0, 6.2),
}
