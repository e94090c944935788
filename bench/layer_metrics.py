"""Per-layer metrics of one traced pass: spans, public counters, probes.

Three sources, all outside the program: the tracer's spans
(:mod:`bench.layers`), public attributes of the frontend after the pass
(pool stats, spec stats, the meter, finished outputs), and isolated probes
(:mod:`bench.probes`). Names follow ``<module>.<metric>``; the full list,
with units and the end-to-end metric each should move, is
:data:`bench.metrics.PER_LAYER`.
"""

from __future__ import annotations

import pickle
import time

from bench import harness, layers, probes
from bench.stats import percentile

# metric -> (span name, what to take, scale). "p50"/"calls" read every span
# of the name; "outer_*" skip a span nested in one of the same name (a pool
# call made by another pool call); "share" is self time inside
# SpeContextServer.step over total step wall; "work" is the computed bytes.
SPAN_METRICS: dict[str, tuple[str | tuple[str, ...], str, float]] = {
    "core.retrieval_head.begin_generation_ms_p50":
        ("core.retrieval_head.begin_generation", "p50", 1e3),
    "core.retrieval_head.pre_step_us_p50": ("core.retrieval_head.pre_step", "p50", 1e6),
    "core.retrieval_head.pre_step_calls": ("core.retrieval_head.pre_step", "calls", 1),
    "core.retrieval_head.pre_step_share": ("core.retrieval_head.pre_step", "share", 1),
    "core.retrieval_head.spec_commit_calls": ("core.retrieval_head.spec_commit", "calls", 1),
    "core.elastic.observe_us_p50": ("core.elastic.observe", "p50", 1e6),
    "core.adaptive.advance_us_p50": ("core.adaptive.advance", "p50", 1e6),
    "kvcache.pool.read_us_p50": ("kvcache.pool.read", "outer_p50", 1e6),
    "kvcache.pool.read_calls": ("kvcache.pool.read", "outer_calls", 1),
    "kvcache.pool.write_us_p50": ("kvcache.pool.write", "outer_p50", 1e6),
    "kvcache.pool.write_calls": ("kvcache.pool.write", "outer_calls", 1),
    "kvcache.pool.share": (("kvcache.pool.read", "kvcache.pool.write"), "share", 1),
    "kvcache.cache.gather_us_p50": ("kvcache.cache.gather", "p50", 1e6),
    "kvcache.cache.gather_calls": ("kvcache.cache.gather", "calls", 1),
    "kvcache.cache.gather_share": ("kvcache.cache.gather", "share", 1),
    "kvcache.cache.gather_bytes": ("kvcache.cache.gather", "work", 1),
    "models.llm.prefill_share": ("models.llm.prefill", "share", 1),
    "models.llm.decode_batch_ms_p50": ("models.llm.decode_batch", "p50", 1e3),
    "models.llm.decode_share":
        (("models.llm.decode_batch", "models.llm.decode_spec"), "share", 1),
    "models.llm.decode_spec_ms_p50": ("models.llm.decode_spec", "p50", 1e3),
    "models.attention.prefill_share": ("models.attention.prefill", "share", 1),
    "models.attention.decode_rows_us_p50": ("models.attention.decode_rows", "p50", 1e6),
    "models.attention.decode_rows_share": ("models.attention.decode_rows", "share", 1),
    "tensor.rope_apply_us_p50": ("tensor.rope_apply", "p50", 1e6),
    "tensor.rope_apply_calls": ("tensor.rope_apply", "calls", 1),
    "tensor.rope_apply_bytes": ("tensor.rope_apply", "work", 1),
    "distill.dlm.draft_batch_ms_p50": ("distill.dlm.draft_batch", "p50", 1e3),
    "distill.dlm.draft_share": ("distill.dlm.draft_batch", "share", 1),
    "serving.server.add_request_us_p50": ("serving.server.add_request", "p50", 1e6),
    "serving.server.step_ms_p50": (layers.STEP, "p50", 1e3),
    "serving.server.steps": (layers.STEP, "calls", 1),
    "serving.engine.add_request_ms_p50": ("serving.engine.add_request", "p50", 1e3),
    "serving.engine.step_ms_p50": ("serving.engine.step", "p50", 1e3),
    "serving.engine.steps": ("serving.engine.step", "calls", 1),
    "serving.placement.place_us_p50": ("serving.placement.place", "p50", 1e6),
}
# Layers that live in the worker processes of http_stream and in this
# process otherwise; and the transport layers, for which the reverse holds.
TRANSPORT = ("serving.engine.", "serving.placement.")
# Layers whose spans carry computed bytes: measured time beside that work.
BYTE_MOVERS = ("kvcache.cache.gather", "tensor.rope_apply", "kvcache.pool.read",
               "kvcache.pool.write")


def mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def p50(samples, scale: float = 1.0) -> float | None:
    """Median under the percentile rule (None below 20 samples), scaled."""
    value = percentile(samples, 50) if samples else None
    return None if value is None else value * scale


def span_metric(times: layers.LayerTimes, names, take: str, scale: float):
    names = (names,) if isinstance(names, str) else names
    if take == "share":
        if not times.step_total:
            return None
        return sum(times.self_in_step.get(n, 0.0) for n in names) / times.step_total
    (name,) = names
    if take == "work":
        return times.work_bytes.get(name, 0)
    source = times.outer_durations if take.startswith("outer_") else times.durations
    samples = source.get(name, [])
    return len(samples) if take.endswith("calls") else p50(samples, scale)


def layer_metrics(workload, model, tokenizer, entries, result, observed, tracer):
    """Every per-layer metric this workload can report, plus the work table."""
    per_thread = tracer.spans()
    times = layers.aggregate(per_thread)
    config = observed["config"]
    in_process = workload.frontend == "server"
    m: dict[str, float | None] = {
        metric: span_metric(times, *spec)
        for metric, spec in SPAN_METRICS.items()
        if metric.startswith(TRANSPORT) != in_process
    }
    m["core.retrieval_head.build_ms"] = mean(
        d * 1e3 for d in times.durations.get("core.retrieval_head.build", ())
    )
    m["models.llm.flops_per_decode_token"] = probes.flops_per_decode_token(
        model.config, config.budget
    )
    m["kvcache.pool.audit_ms"] = observed["audit_s"] * 1e3
    if in_process:
        m.update(server_metrics(entries, result, observed, times))
        # Rows per decode wave (a speculating session feeds several).
        rows = round(result.generated_tokens / max(m["serving.server.steps"], 1))
    else:
        m.update(transport_metrics(model, tokenizer, entries, result, observed,
                                   per_thread, m["serving.engine.step_ms_p50"]))
        rows = 1

    work = probes.tensor_probes(model.config, rows, config.budget)
    m["tensor.linear_rows_us_p50"] = work["tensor.linear_rows"]["us_p50"]
    m["tensor.linear_rows_flops"] = work["tensor.linear_rows"]["flops"]
    m["tensor.softmax_us_p50"] = work["tensor.softmax"]["us_p50"]
    m["tensor.softmax_bytes"] = work["tensor.softmax"]["bytes"]
    for name in BYTE_MOVERS:
        if times.work_bytes.get(name):
            work[name] = {
                "calls": len(times.durations[name]),
                "time_s": times.self_total[name],
                "bytes": times.work_bytes[name],
            }
    probes.flag_dispatch_bound(work)
    m["bench.dispatch_bound_layers"] = sum(r["dispatch_bound"] for r in work.values())
    return m, work


def server_metrics(entries, result, observed, times: layers.LayerTimes) -> dict:
    """Counters read off the in-process server after its pass."""
    server, observer = observed["server"], observed["observer"]
    outputs, pool, stats = server.outputs, server.pool, server.pool.stats
    spec = server.spec_stats
    prefill_s = sum(times.durations.get("models.llm.prefill", ()))
    started = time.perf_counter()
    type(pool)(pool.capacity, block_size=pool.block_size)
    pool_construct_s = time.perf_counter() - started
    return {
        "serving.server.construct_ms": observed["construct_s"] * 1e3,
        "serving.server.decode_batch_mean": mean(b for b in result.batch_sizes if b),
        "serving.server.prefill_tokens": observer.prefill_tokens,
        "serving.server.step_self_ms_p50": p50(times.step_self, 1e3),
        "serving.server.queue_wait_steps_p50": p50(
            [r.start_s - r.arrival_s for r in server.meter.finished]
        ),
        "serving.server.preemptions": len(server.preemption_log),
        "serving.server.spec_acceptance_rate": spec.acceptance_rate,
        "serving.server.tokens_per_spec_step": spec.tokens_per_spec_step,
        "distill.dlm.drafted": spec.drafted,
        "distill.dlm.accepted": spec.accepted,
        "core.elastic.transfer_bytes": sum(o.stats.bytes_transferred for o in outputs),
        "core.elastic.transfer_reduction": mean(o.stats.transfer_reduction for o in outputs),
        "core.elastic.mean_overlap": mean(o.stats.mean_selection_overlap for o in outputs),
        "core.adaptive.capacity_tokens": server.manager.capacity_tokens(),
        "core.adaptive.offload_events": sum(len(o.stats.offload_events) for o in outputs),
        "kvcache.pool.construct_ms": pool_construct_s * 1e3,
        "kvcache.pool.prefix_hit_rate": stats.prefix_hit_rate,
        "kvcache.pool.prefix_tokens_reused_share": (
            sum(o.stats.prefix_reused_tokens for o in outputs)
            / sum(e.prompt_ids.size for e in entries)
        ),
        "kvcache.pool.prefix_evictions": stats.prefix_evictions,
        "kvcache.pool.peak_used_share": observer.peak_used / pool.capacity,
        "kvcache.pool.spec_release_share": (
            stats.spec_released / stats.spec_reserved if stats.spec_reserved else 0.0
        ),
        "models.llm.prefill_ms_per_ktoken": (
            prefill_s * 1e3 / (observer.prefill_tokens / 1e3)
            if observer.prefill_tokens else None
        ),
        "bench.residual_share": (
            sum(times.step_self) / times.step_total if times.step_total else None
        ),
    }


def transport_metrics(
    model, tokenizer, entries, result, observed, per_thread, engine_step_ms
) -> dict:
    """http_stream's transport-side numbers.

    Worker-side spans do not cross the process boundary: the worker's share
    of a step is ``serving.engine.step_ms_p50`` minus the overhead below.
    """
    from repro.serving.engine import WorkerCore
    from repro.serving.http import parse_completion_body
    from repro.serving.server import SpeContextServer

    # Engine-side TTFT: add_request entry to the end of the first pop that
    # carried events. One closed-loop client, so requests never overlap and
    # the n-th add_request belongs to the n-th trace.
    spans = sorted((s for t in per_thread for s in t), key=lambda s: s.start)
    adds = [s for s in spans if s.name == "serving.engine.add_request"]
    pops = [s for s in spans if s.name == "serving.engine.pop_stream_events" and s.work_bytes]
    overheads = []
    for add, trace in zip(adds, result.traces):
        first = next((p for p in pops if p.end > add.start), None)
        if first is not None and trace.ttft_ms is not None:
            overheads.append(trace.ttft_ms - (first.end - add.start) * 1e3)

    bodies = [harness.completion_body(e) for e in entries]
    parse_s = []
    for _ in range(-(-20 // len(bodies))):
        for body in bodies:
            started = time.perf_counter()
            parse_completion_body(body, tokenizer)
            parse_s.append(time.perf_counter() - started)

    # The same requests stepped in-process through a WorkerCore: no pipe,
    # no pickle, no merge. executor.step minus this is the transport cost
    # of a step; pickling each real StepResult gives the bytes a pipe moves.
    core = WorkerCore(SpeContextServer(model, observed["config"]))
    step_s, pickled = [], []
    for entry in entries[: max(3, len(entries) // 3)]:
        core.handle("submit", (entry.request(),))
        while core.server.has_unfinished:
            started = time.perf_counter()
            step = core.handle("step", ())
            step_s.append(time.perf_counter() - started)
            pickled.append(len(pickle.dumps(step)))
    inproc_step_ms = p50(step_s, 1e3)
    return {
        "serving.http.requests": len(result.traces),
        "serving.http.sse_chunks": result.sse_chunks,
        "serving.http.bytes_out": result.bytes_out,
        "serving.http.parse_us_p50": p50(parse_s, 1e6),
        "serving.http.ttft_overhead_ms_p50": p50(overheads),
        "serving.engine.spawn_s": observed["spawn_s"],
        "serving.engine.step_overhead_ms_p50": (
            None if None in (inproc_step_ms, engine_step_ms)
            else engine_step_ms - inproc_step_ms
        ),
        "serving.engine.step_result_pickle_bytes_p50": p50(pickled),
        "serving.placement.affinity_hit_rate": observed["affinity_hit_rate"],
        "bench.client_overhead_ms_p50": p50(result.client_overhead_ms),
    }
