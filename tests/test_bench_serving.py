"""The serving benchmark harness itself is part of the tested surface:
every future PR's perf trajectory depends on it emitting a valid,
self-consistent report."""

from __future__ import annotations

import importlib.util
import json
import pathlib

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_serving.py"
)
_spec = importlib.util.spec_from_file_location("bench_serving", BENCH_PATH)
bench_serving = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_serving)


class TestBenchServing:
    def run_bench(self, tmp_path, extra=()):
        out = tmp_path / "BENCH_serving.json"
        rc = bench_serving.main([
            "--sessions", "3", "--prompt-len", "24", "--max-new-tokens", "6",
            "--layers", "2", "--repeats", "1",
            "--short-sessions", "4", "--short-max-new", "6",
            "--long-prompt-len", "96", "--prefill-chunk-tokens", "16",
            "--max-step-tokens", "24",
            "--spec-periodic-sessions", "2", "--spec-filler-sessions", "1",
            "--spec-prompt-len", "25", "--spec-max-new", "8",
            "--out", str(out), *extra,
        ])
        return rc, out

    def test_report_schema_and_identical_streams(self, tmp_path, capsys):
        rc, out = self.run_bench(tmp_path)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "serving_batched_decode"
        assert report["streams_identical"] is True
        assert report["speedup"] > 0
        for mode in ("sequential", "batched"):
            entry = report[mode]
            assert entry["generated_tokens"] > 0
            assert entry["tokens_per_s"] > 0
            assert entry["decode_tokens_per_s"] > 0
            assert set(entry["step_latency_ms"]) == {"mean", "p50", "p95"}
            assert set(entry["ttft_ms"]) == {"mean", "p50", "p95"}
            assert entry["ttft_ms"]["p95"] >= entry["ttft_ms"]["p50"] > 0
            assert set(entry["queueing_delay_steps"]) == {"mean", "p50", "p95"}
            assert entry["busy_tokens_per_step"] >= entry["tokens_per_step"] > 0
            assert "token_streams" not in entry  # raw streams stay out
        assert "speedup" in capsys.readouterr().out

    def test_chunked_prefill_section_schema(self, tmp_path, capsys):
        rc, out = self.run_bench(tmp_path)
        assert rc == 0
        section = json.loads(out.read_text())["chunked_prefill"]
        assert section["streams_identical"] is True
        assert section["ttft_p95_gain"] > 0
        assert section["decode_step_p95_gain"] > 0
        assert section["workload"]["prefill_chunk_tokens"] == 16
        for mode in ("monolithic", "chunked"):
            entry = section[mode]
            assert entry["generated_tokens"] > 0
            assert set(entry["decode_step_latency_ms"]) == {"p50", "p95"}
            assert entry["ttft_ms"]["p95"] > 0
            assert set(entry["step_tokens"]) == {"budget", "mean", "max"}
            assert "token_streams" not in entry
        # The token budget is enforced step by step in chunked mode only:
        # monolithic admission computes a whole prompt inline.
        assert section["chunked"]["step_tokens"]["budget"] == 24
        assert section["monolithic"]["step_tokens"]["max"] > 24
        assert "chunked prefill" in capsys.readouterr().out

    def test_spec_decode_section_schema(self, tmp_path, capsys):
        rc, out = self.run_bench(tmp_path)
        assert rc == 0
        section = json.loads(out.read_text())["spec_decode"]
        assert section["streams_identical"] is True
        assert section["speedup"] > 0
        assert 0.0 <= section["acceptance_rate"] <= 1.0
        assert section["spec_steps"] > 0
        assert 0 <= section["accepted"] <= section["drafted"]
        assert 1.0 <= section["tokens_per_spec_step"] <= section["workload"][
            "spec_k"
        ] + 1
        assert section["workload"]["policy"] == "full"
        assert section["workload"]["periodic_sessions"] == 2
        for mode in ("baseline", "speculative"):
            entry = section[mode]
            assert entry["generated_tokens"] > 0
            assert entry["decode_tokens_per_s"] > 0
            assert "token_streams" not in entry
        # Identical trace, identical acceptance rule: both modes must
        # emit the same number of tokens.
        assert (
            section["baseline"]["generated_tokens"]
            == section["speculative"]["generated_tokens"]
        )
        assert "spec decode" in capsys.readouterr().out

    def test_spec_smoke_lane_runs_only_spec(self, tmp_path, capsys):
        rc, out = self.run_bench(tmp_path, extra=("--spec-smoke",))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "serving_spec_decode_smoke"
        assert set(report) == {"benchmark", "spec_decode"}
        assert report["spec_decode"]["streams_identical"] is True
        assert "spec decode" in capsys.readouterr().out

    def test_min_accept_rate_gate_fails_when_unmet(self, tmp_path, capsys):
        rc, _ = self.run_bench(
            tmp_path, extra=("--spec-smoke", "--min-accept-rate", "1.1")
        )
        assert rc == 1
        assert "acceptance rate" in capsys.readouterr().err

    def test_min_spec_speedup_gate_fails_when_unmet(self, tmp_path, capsys):
        rc, _ = self.run_bench(
            tmp_path, extra=("--spec-smoke", "--min-spec-speedup", "1e9")
        )
        assert rc == 1
        assert "speculative speedup" in capsys.readouterr().err

    def test_min_speedup_gate_fails_when_unmet(self, tmp_path, capsys):
        rc, _ = self.run_bench(tmp_path, extra=("--min-speedup", "1e9"))
        assert rc == 1
        assert "below required" in capsys.readouterr().err

    def test_min_step_gain_gate_fails_when_unmet(self, tmp_path, capsys):
        rc, _ = self.run_bench(tmp_path, extra=("--min-step-gain", "1e9"))
        assert rc == 1
        assert "decode-step p95 gain" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, tmp_path, capsys):
        rc = bench_serving.main(["--policy", "nope", "--out", str(tmp_path / "x")])
        assert rc == 2
