"""Unit checks of the benchmark's own arithmetic: no model, no processes."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import compare, layers, run
from bench.metrics import CONTRACT_END_TO_END, END_TO_END, PER_LAYER, SLO_LIMITS_MS
from bench.stats import iqr_share, percentile

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# ---- the percentile rule -----------------------------------------------------


@pytest.mark.parametrize(
    "q, enough, too_few",
    [(50, 20, 19), (90, 100, 99), (99, 1000, 999)],
)
def test_percentile_needs_ten_samples_beyond_it(q, enough, too_few):
    assert percentile(list(range(too_few)), q) is None
    assert percentile(list(range(enough)), q) is not None


def test_percentile_is_a_measured_value_at_the_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0
    assert percentile(list(reversed(samples)), 90) == 90.0


def test_iqr_share_matches_the_drivers_definition():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ---- tracer self-time arithmetic ---------------------------------------------


def _span(name, start, end, parent):
    return layers.Span(name, start, end, parent, thread=0, work_bytes=0)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(layers.STEP, 0.0, 10.0, -1),       # 0: step, 10 s
        _span("models.llm.decode_batch", 1.0, 7.0, 0),   # 1: child of step, 6 s
        _span("kvcache.cache.gather", 2.0, 4.0, 1),      # 2: grandchild, 2 s
        _span("kvcache.cache.gather", 4.0, 5.0, 1),      # 3: grandchild, 1 s
        _span("kvcache.pool.write", 8.0, 9.0, 0),        # 4: child of step, 1 s
        _span("kvcache.pool.write", 8.2, 8.7, 4),        # 5: nested same-name, .5 s
        _span("serving.server.add_request", 20.0, 21.0, -1),  # 6: outside any step
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx([3.0, 3.0, 2.0, 1.0, 0.5, 0.5, 1.0])
    # Self times partition the roots' wall exactly.
    assert sum(own) == pytest.approx(10.0 + 1.0)

    times = layers.aggregate([spans])
    assert times.step_total == pytest.approx(10.0)
    assert times.step_self == pytest.approx([3.0])
    assert times.self_in_step["kvcache.cache.gather"] == pytest.approx(3.0)
    assert times.self_in_step["kvcache.pool.write"] == pytest.approx(1.0)
    assert "serving.server.add_request" not in times.self_in_step
    # A nested same-name span is one outer call, not two.
    assert times.outer_durations["kvcache.pool.write"] == pytest.approx([1.0])
    assert len(times.durations["kvcache.pool.write"]) == 2
    shares = sum(times.self_in_step.values()) / times.step_total
    assert shares == pytest.approx(1.0)


def test_chrome_trace_has_one_complete_event_per_span():
    spans = [_span(layers.STEP, 1.0, 1.5, -1), _span("tensor.rope_apply", 1.1, 1.2, 0)]
    trace = layers.chrome_trace([spans], origin=1.0)
    events = trace["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["name"] == "step" and events[0]["cat"] == "serving.server"
    assert events[1]["ts"] == pytest.approx(1e5) and events[1]["dur"] == pytest.approx(1e5)


# ---- BENCHMARK.json against the metric tables --------------------------------


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 10) < 3420, "time cap"


def test_contract_workloads_are_the_suite(contract):
    assert [w["name"] for w in contract["workloads"]] == list(SLO_LIMITS_MS)
    assert list(run.WORKLOAD_NAMES) == list(SLO_LIMITS_MS)


def test_contract_end_to_end_matches_the_table(contract):
    listed = {m["name"]: m for m in contract["end_to_end"]}
    assert list(listed) == [m.name for m in CONTRACT_END_TO_END]
    for metric in CONTRACT_END_TO_END:
        entry = listed[metric.name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound,
        )
        assert 0 < entry["bound"] <= 0.25 and not metric.absolute
    setup = listed["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert len(END_TO_END) == 11


def test_contract_per_layer_matches_the_table(contract):
    listed = {m["name"]: m for m in contract["per_layer"]}
    assert list(listed) == list(PER_LAYER)
    assert 1 <= len(listed) <= 128
    e2e = {m.name for m in END_TO_END}
    for name, (unit, better, moves, where) in PER_LAYER.items():
        assert NAME.match(name) and len(name) <= 64
        assert listed[name] == {"name": name, "unit": unit, "better": better}
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit)
        assert moves in e2e and (where == "all" or where in SLO_LIMITS_MS)


# ---- merging repeats: a corrupted stream is a failed request -----------------


def _record(digests, verdicts=None, ttft=10.0):
    n = len(digests)
    return {
        "requests": n,
        "verdicts": verdicts or [None] * n,
        "request_digests": digests,
        "ttft_ms": [ttft] * n,
        "request_ms": [50.0] * n,
        "mean_gap_ms": [2.0] * n,
        "gaps_ms": [2.0] * (20 * n),
        "setup_s": 1.0,
        "tokens_per_s": 100.0,
        "wall_s": 1.0,
        "peak_rss_mb": 200.0,
        "quality_score": 0.5,
    }


def test_a_stream_that_differs_between_repeats_counts_as_failed():
    clean = _record(["a", "b", "c", "d"])
    corrupted = _record(["a", "b", "X", "d"])
    verdicts = run.merge_failures([clean, clean, corrupted])
    assert verdicts == [None, None, "stream differs between repeats", None]
    metrics = run.end_to_end("decode_heavy", [clean, clean, corrupted], verdicts)
    assert metrics["failed_share"] == pytest.approx(0.25)
    # A failed request misses its latency limits whatever its timing.
    assert metrics["slo_attainment"] == pytest.approx(0.75)


def test_a_request_beyond_its_latency_limit_misses_the_slo(monkeypatch):
    monkeypatch.setitem(SLO_LIMITS_MS, "decode_heavy", (15.0, 5.0))
    fast, slow = _record(["a", "b"]), _record(["a", "b"], ttft=20.0)
    verdicts = run.merge_failures([fast, slow])
    metrics = run.end_to_end("decode_heavy", [fast, slow], verdicts)
    assert metrics["failed_share"] == 0.0
    assert metrics["slo_attainment"] == pytest.approx(0.5)


def test_timings_are_the_best_repeats_own_median_and_set_up_is_a_median():
    # 10 of 16 requests share the first step's timestamp (pool_pressure):
    # pooled over three repeats the nearest-rank median would be the
    # *slowest* repeat's first step.
    def repeat(first_step_ms, tokens_per_s, setup_s):
        record = _record(["d"] * 16)
        record["ttft_ms"] = [first_step_ms] * 10 + [3 * first_step_ms] * 6
        record["tokens_per_s"], record["setup_s"] = tokens_per_s, setup_s
        return record

    records = [repeat(1100.0, 280.0, 0.7), repeat(1500.0, 230.0, 1.2),
               repeat(1200.0, 260.0, 0.8)]
    metrics = run.end_to_end("pool_pressure", records, [None] * 16)
    assert metrics["ttft_ms_p50"] == 1100.0
    assert metrics["tokens_per_s"] == 280.0
    assert metrics["setup_s"] == 0.8


def test_a_p50_needs_twenty_pooled_samples():
    few = [_record(["a", "b", "c"])] * 3  # 9 requests over the repeats
    metrics = run.end_to_end("decode_heavy", few, [None] * 3)
    assert metrics["ttft_ms_p50"] is None
    assert metrics["itl_ms_p50"] == 2.0  # 180 gaps


def test_repeats_scale_with_seconds_but_never_below_the_pooled_median_floor():
    assert run.repeats_for(10) == 3
    assert run.repeats_for(1) == 3
    assert run.repeats_for(20) == 6


# ---- compare ----------------------------------------------------------------


def _result(seed=0, **overrides):
    values = {
        "setup_s": 1.0, "tokens_per_s": 100.0, "ttft_ms_p50": 10.0,
        "ttft_ms_p90": None, "itl_ms_p50": 2.0, "itl_ms_p99": 5.0,
        "request_ms_p50": 50.0, "quality_score": 0.5, "slo_attainment": 1.0,
        "failed_share": 0.0, "peak_rss_mb": 200.0,
    }
    values.update(overrides)
    raw = {
        name: {"n": 3, "min": v * 0.99, "median": v, "max": v * 1.01}
        for name, v in values.items()
        if v and name in ("setup_s", "tokens_per_s", "ttft_ms_p50", "itl_ms_p50",
                          "request_ms_p50", "peak_rss_mb")
    }
    row = {"workload": "decode_heavy", "mode": "timed", "seed": seed,
           "end_to_end": values, "raw": raw, "stream_digest": "d"}
    return {"environment": {"seed": seed}, "rows": [row]}


def _verdicts(base, cand, **kw):
    bounds = compare.load_bounds()
    rows = compare.compare_rows(base["rows"][0], cand["rows"][0], bounds, True, **kw)
    return {metric.name: verdict for metric, _, _, _, verdict in rows}


def test_compare_flags_a_breach_and_a_higher_failed_share(tmp_path):
    base = _result()
    slower = _result(tokens_per_s=70.0, failed_share=0.1)
    verdicts = _verdicts(base, slower)
    assert verdicts["tokens_per_s"] == "BREACH"
    assert verdicts["failed_share"] == "BREACH"
    assert verdicts["itl_ms_p50"] == "ok"
    assert verdicts["ttft_ms_p90"] == "n/a"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_compare_marks_a_noisy_metric_unresolved_unless_it_dominates():
    base, cand = _result(), _result(tokens_per_s=101.0)
    cand["rows"][0]["raw"]["tokens_per_s"] = {"n": 3, "min": 80.0, "median": 101.0, "max": 120.0}
    assert _verdicts(base, cand)["tokens_per_s"].startswith("unresolved")
    cand["rows"][0]["raw"]["tokens_per_s"] = {"n": 3, "min": 102.0, "median": 130.0, "max": 150.0}
    assert _verdicts(base, cand)["tokens_per_s"] == "ok (better in every repeat)"


def test_compare_same_commit_demands_identical_quality():
    base, cand = _result(), _result(quality_score=0.6)
    assert _verdicts(base, cand)["quality_score"] == "ok"
    assert _verdicts(base, cand, same_commit=True)["quality_score"].startswith("BREACH")
    assert _verdicts(base, _result(quality_score=0.4))["quality_score"] == "BREACH"
