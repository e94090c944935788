"""Every workload through the real harness, on toy shapes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import child, harness, layers, run
from bench.metrics import CONTRACT_END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS, inputs_digest

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def tokenizer():
    from repro.models.tokenizer import SyntheticTokenizer

    return SyntheticTokenizer(2048)


# ---- inputs from the seed ----------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tokenizer):
    workload = WORKLOADS[name]
    first = inputs_digest(workload.entries(tokenizer, seed=7))
    again = inputs_digest(workload.entries(tokenizer, seed=7))
    other = inputs_digest(workload.entries(tokenizer, seed=8))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_seed_changes_the_text_but_never_the_shape(name, tokenizer):
    workload = WORKLOADS[name]
    a, b = workload.entries(tokenizer, seed=1), workload.entries(tokenizer, seed=2)
    shape = lambda entries: [  # noqa: E731
        (e.arrival_step, e.prompt_ids.size, e.max_new_tokens) for e in entries
    ]
    assert shape(a) == shape(b)
    assert any(not np.array_equal(x.prompt_ids, y.prompt_ids) for x, y in zip(a, b))


def test_workloads_of_one_seed_draw_from_separate_streams(tokenizer):
    heavy = WORKLOADS["decode_heavy"].entries(tokenizer, seed=0, tiny=True)
    pressed = WORKLOADS["pool_pressure"].entries(tokenizer, seed=0, tiny=True)
    assert not np.array_equal(heavy[0].prompt_ids, pressed[0].prompt_ids)


# ---- every workload, traced, through the child -------------------------------


@pytest.fixture(scope="module")
def traced_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    originals = {
        (cls, method): cls.__dict__[method]
        for _, cls, method, _ in layers._traced_methods()
    }
    records = {
        name: child.run_child(
            name, seed=3, mode="traced", tiny=True, solo=True,
            trace_path=out / f"trace_{name}.json",
        )
        for name in WORKLOADS
    }
    return records, originals


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_its_result_validates(name, traced_records):
    record = traced_records[0][name]
    assert record["verdicts"] == [None] * record["requests"], record["verdicts"]
    assert record["audit"] == "clean"
    assert len(record["solo_checked"]) == 2
    assert record["generated_tokens"] > 0 and record["tokens_per_s"] > 0
    assert record["setup_s"] > 0 and record["peak_rss_mb"] > 0
    assert all(t is not None and t > 0 for t in record["ttft_ms"])
    assert 0.0 <= record["quality_score"] <= 1.0
    # Every per-layer name the child reports is a contract name.
    assert set(record["layers"]) <= set(PER_LAYER)
    assert all(NAME.match(k) for k in record["layers"])
    row = {"mode": "traced", "workload": name, "correct": True, "requests_sent": 1,
           "failed": 0, "per_layer": {k: record["layers"].get(k) for k in PER_LAYER}}
    line = json.loads(run.contract_line(row))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(PER_LAYER)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    trace = json.loads(Path(record["trace_file"]).read_text())
    assert trace["traceEvents"], "the traced pass recorded no span"


def test_layers_that_a_workload_exercises_show_up(traced_records):
    records = traced_records[0]
    assert records["shared_prefix"]["layers"]["kvcache.pool.prefix_hit_rate"] > 0.5
    assert records["pool_pressure"]["layers"]["kvcache.pool.prefix_hit_rate"] == 0
    assert records["pool_pressure"]["layers"]["kvcache.pool.peak_used_share"] == 1.0
    assert records["spec_mixed"]["layers"]["distill.dlm.drafted"] > 0
    assert records["decode_heavy"]["layers"]["distill.dlm.drafted"] == 0
    assert records["http_stream"]["layers"]["serving.http.sse_chunks"] > 0
    assert records["http_stream"]["layers"]["serving.engine.steps"] > 0
    assert "serving.engine.steps" not in records["decode_heavy"]["layers"]
    for name in ("decode_heavy", "prefill_heavy"):
        assert records[name]["layers"]["bench.residual_share"] <= 0.10


def test_wrappers_are_fully_removed_and_never_private(traced_records):
    originals = traced_records[1]
    assert originals, "nothing was wrapped"
    for (cls, method), original in originals.items():
        assert not method.startswith("_"), f"{cls.__name__}.{method} is private"
        assert cls.__dict__[method] is original, f"{cls.__name__}.{method} left wrapped"


def test_tracer_installs_on_class_attributes_and_restores_them():
    from repro.kvcache.pool import PagedKVPool

    before = PagedKVPool.__dict__["allocate"]
    tracer = layers.Tracer()
    with tracer:
        assert PagedKVPool.__dict__["allocate"] is not before
        pool = PagedKVPool(4, block_size=2)
        assert "allocate" not in vars(pool), "wrapped an instance, not the class"
        pool.release(pool.allocate())
    assert PagedKVPool.__dict__["allocate"] is before
    names = [s.name for s in tracer.spans()[0]]
    assert names == ["kvcache.pool.write", "kvcache.pool.write"]


# ---- a corrupted stream is caught --------------------------------------------


def test_a_corrupted_stream_fails_the_solo_check(tokenizer):
    entries = WORKLOADS["decode_heavy"].entries(tokenizer, seed=0, tiny=True)
    good = [[5, 6, 7], [8, 9]]
    result = harness.PassResult(
        traces=[
            harness.RequestTrace(0.0, [(1.0, tokens)], terminal_events=1)
            for tokens in good
        ],
        wall_s=1.0,
    )
    assert harness.check_pass(entries, result, {0: good[0], 1: good[1]}) == [None, None]
    verdicts = harness.check_pass(entries, result, {0: good[0], 1: [8, 99]})
    assert verdicts == [None, "stream differs from the solo run"]
    result.traces[0].terminal_events = 2
    assert harness.check_pass(entries, result, {})[0] == "2 terminal events"


# ---- the command itself, as the driver calls it ------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_command_prints_the_result_object_last(trace, tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "shared_prefix", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny",
         "--out", str(tmp_path / "out.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        got = line["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"] and isinstance(got["value"], (int, float))
    if not trace:
        assert [m["name"] for m in wanted] == [m.name for m in CONTRACT_END_TO_END]
        assert all(m["value"] > 0 for m in line["metrics"].values())
    result = json.loads((tmp_path / "out.json").read_text())
    env = result["environment"]
    assert {"nproc", "python", "numpy", "blas_threads", "worker_start_method",
            "git_commit", "seed"} <= set(env)
