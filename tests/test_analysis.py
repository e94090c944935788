"""Fixture tests for the ``repro.analysis`` static-analysis passes.

Each pass is exercised three ways: a seeded true positive it must catch,
an inline-suppressed variant it must skip (and count), and a clean
variant producing nothing.
Two mutation tests then prove the linter guards the *real* tree: deleting
one arm of a reserve_spec/release_spec pair from a copy of server.py, or
one ``_op_`` handler from a copy of worker.py, must each produce a
finding. Finally a self-check pins that the shipped tree is clean — the
exact gate the CI job runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import run
from repro.analysis import contract, schema
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.astutil import Module
from repro.analysis.findings import Suppressions

REPRO_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def scan(root: Path, **kwargs):
    return run([root / "pkg"], **kwargs)


def rules_of(report) -> list[str]:
    return [f.rule for f in report.findings]


# ---- pass 1: determinism -----------------------------------------------------


class TestDeterminismPass:
    def test_wall_clock_true_positive(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/sched.py": (
                "import time\n\n\ndef now():\n    return time.time()\n"
            ),
        })
        report = scan(scan_root)
        assert rules_of(report) == ["wall-clock"]
        assert report.findings[0].line == 5

    def test_wall_clock_suppressed(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/sched.py": (
                "import time\n\n\ndef now():\n"
                "    return time.time()  # repro: allow(wall-clock): gauge\n"
            ),
        })
        report = scan(scan_root)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["wall-clock"]

    def test_allowlisted_segments_and_sleep_are_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            # Benchmarks legitimately read wall clocks.
            "pkg/benchmarks/bench.py": (
                "import time\nstart = time.perf_counter()\n"
            ),
            # time.sleep changes latency, never state.
            "pkg/serving/pace.py": "import time\ntime.sleep(0.1)\n",
        })
        assert scan(scan_root).findings == []

    def test_unseeded_rng_flagged_seeded_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/kvcache/bad.py": (
                "import numpy as np\nx = np.random.rand(3)\n"
                "rng = np.random.default_rng()\n"
            ),
            "pkg/kvcache/good.py": (
                "import numpy as np\nrng = np.random.default_rng(1234)\n"
                "x = rng.standard_normal(3)\n"
            ),
        })
        report = scan(scan_root)
        assert rules_of(report) == ["unseeded-rng", "unseeded-rng"]
        assert all(f.path.endswith("bad.py") for f in report.findings)

    def test_set_iteration_flagged_sorted_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/pick.py": (
                "def pick(vals, drop):\n"
                "    chosen = set(vals) - set(drop)\n"
                "    out = []\n"
                "    for x in chosen:\n"
                "        out.append(x)\n"
                "    return out\n"
                "\n"
                "\n"
                "def pick_ok(vals, drop):\n"
                "    chosen = set(vals) - set(drop)\n"
                "    return [x for x in sorted(chosen)]\n"
            ),
        })
        report = scan(scan_root)
        assert rules_of(report) == ["set-iteration"]
        assert report.findings[0].line == 4

    def test_matmul_only_flagged_in_models(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/models/layer.py": (
                "import numpy as np\n\n\ndef f(x, w):\n    return x @ w.T\n"
            ),
            # Same code outside models/ is out of scope for this rule.
            "pkg/retrieval/score.py": (
                "def f(x, w):\n    return x @ w.T\n"
            ),
        })
        report = scan(scan_root)
        assert rules_of(report) == ["row-fused-matmul"]
        assert report.findings[0].path.endswith("models/layer.py")


# ---- pass 2: resource pairing ------------------------------------------------


LEAKY_SPEC = """\
def propose(pool, n):
    reserved = pool.reserve_spec(n)
    if n > 2:
        return []
    pool.release_spec(reserved)
    return [1]
"""

PAIRED_SPEC = """\
def propose(pool, n):
    reserved = pool.reserve_spec(n)
    if n > 2:
        pool.release_spec(reserved)
        return []
    pool.promote_spec(None, reserved[:1])
    pool.release_spec(reserved[1:])
    return [1]
"""


class TestResourcePass:
    def test_leak_on_one_path_flagged(self, tmp_path):
        scan_root = write_tree(tmp_path, {"pkg/serving/spec.py": LEAKY_SPEC})
        report = scan(scan_root)
        assert rules_of(report) == ["spec-reservation-leak"]
        assert report.findings[0].line == 2

    def test_paired_on_all_paths_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {"pkg/serving/spec.py": PAIRED_SPEC})
        assert scan(scan_root).findings == []

    def test_len_does_not_discharge_the_obligation(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/spec.py": (
                "def propose(pool, n):\n"
                "    reserved = pool.reserve_spec(n)\n"
                "    return len(reserved)\n"
            ),
        })
        assert rules_of(scan(scan_root)) == ["spec-reservation-leak"]

    def test_suppressed_leak_is_counted_not_reported(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/spec.py": LEAKY_SPEC.replace(
                "reserved = pool.reserve_spec(n)",
                "reserved = pool.reserve_spec(n)"
                "  # repro: allow(spec-reservation-leak): fixture",
            ),
        })
        report = scan(scan_root)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["spec-reservation-leak"]

    def test_free_in_try_body_flagged_finally_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/drop.py": (
                "def bad(pool, table, work):\n"
                "    try:\n"
                "        work()\n"
                "        pool.free_table(table)\n"
                "    except ValueError:\n"
                "        pass\n"
                "\n"
                "\n"
                "def good(pool, table, work):\n"
                "    try:\n"
                "        work()\n"
                "    finally:\n"
                "        pool.free_table(table)\n"
            ),
        })
        report = scan(scan_root)
        assert rules_of(report) == ["free-in-try-body"]
        assert report.findings[0].line == 4


# ---- pass 3: worker protocol -------------------------------------------------


WORKER_FIXTURE = """\
class WorkerCore:
    def _op_step(self):
        return 1

    def _op_submit(self, request):
        return 2

    def _op_lonely(self):
        return 3
"""

EXECUTOR_FIXTURE = """\
def drive(handle, request):
    handle.call("step")
    handle.call("submit", request)
    handle.call("missing")
    handle.call("step", 1, 2)
"""


class TestProtocolPass:
    def test_unknown_unused_and_arity_findings(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/engine/worker.py": WORKER_FIXTURE,
            "pkg/serving/engine/executor.py": EXECUTOR_FIXTURE,
        })
        report = scan(scan_root)
        assert sorted(rules_of(report)) == [
            "op-arity-mismatch", "unknown-op", "unused-op",
        ]
        by_rule = {f.rule: f for f in report.findings}
        assert "missing" in by_rule["unknown-op"].message
        assert "_op_lonely" in by_rule["unused-op"].message
        assert by_rule["unknown-op"].path.endswith("executor.py")
        assert by_rule["unused-op"].path.endswith("worker.py")

    def test_matched_protocol_is_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/engine/worker.py": WORKER_FIXTURE,
            "pkg/serving/engine/executor.py": (
                "def drive(handle, request):\n"
                '    handle.call("step")\n'
                '    handle.call("submit", request)\n'
                '    handle.call("lonely")\n'
            ),
        })
        assert scan(scan_root).findings == []

    def test_unused_op_suppressible_on_handler_line(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/serving/engine/worker.py": WORKER_FIXTURE.replace(
                "def _op_lonely(self):",
                "def _op_lonely(self):  # repro: allow(unused-op): external",
            ),
            "pkg/serving/engine/executor.py": (
                "def drive(handle, request):\n"
                '    handle.call("step")\n'
                '    handle.call("submit", request)\n'
            ),
        })
        report = scan(scan_root)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["unused-op"]


# ---- pass 4: error contract --------------------------------------------------


ERRORS_FIXTURE = """\
class ApiError(Exception):
    http_status = 500
    code = "internal_error"


class TeapotError(ApiError):
    http_status = 418
    code = "teapot"
"""


class TestContractPass:
    def test_unmapped_and_dead_arm_flagged(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/api/errors.py": ERRORS_FIXTURE,
            "pkg/serving/http.py": (
                "def _error_type_for(status):\n"
                "    if status == 500:\n"
                '        return "api_error"\n'
                "    if status == 499:\n"
                '        return "client_closed"\n'
                '    return "invalid_request_error"\n'
            ),
        })
        report = scan(scan_root, rules=set(contract.RULES))
        assert sorted(rules_of(report)) == [
            "unknown-contract-status", "unmapped-error-status",
        ]
        by_rule = {f.rule: f for f in report.findings}
        assert "418" in by_rule["unmapped-error-status"].message
        assert "499" in by_rule["unknown-contract-status"].message

    def test_full_contract_is_clean(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/api/errors.py": ERRORS_FIXTURE,
            "pkg/serving/http.py": (
                "def _error_type_for(status):\n"
                "    if status == 418:\n"
                '        return "teapot_error"\n'
                "    if status >= 500:\n"
                '        return "api_error"\n'
                '    return "invalid_request_error"\n'
            ),
        })
        assert scan(scan_root, rules=set(contract.RULES)).findings == []

    def test_missing_and_duplicate_codes_flagged(self, tmp_path):
        scan_root = write_tree(tmp_path, {
            "pkg/api/errors.py": (
                "class NoCodeError(Exception):\n"
                "    http_status = 422\n"
                "\n"
                "\n"
                "class AError(Exception):\n"
                "    http_status = 409\n"
                '    code = "conflict"\n'
                "\n"
                "\n"
                "class BError(Exception):\n"
                "    http_status = 409\n"
                '    code = "conflict"\n'
            ),
            "pkg/serving/http.py": (
                "def _error_type_for(status):\n"
                "    if status in (409, 422):\n"
                '        return "invalid_request_error"\n'
                '    return "api_error"\n'
            ),
        })
        assert sorted(
            rules_of(scan(scan_root, rules=set(contract.RULES)))
        ) == [
            "duplicate-error-code", "error-missing-code",
        ]


# ---- pass 5: http schema -----------------------------------------------------


HTTP_SCHEMA_FIXTURE = """\
COMPLETION_REQUEST_FIELDS = frozenset({"prompt", "stream"})


def _field(body, name, types, default):
    return body.get(name, default)


def parse_completion_body(raw, tokenizer):
    body = dict(raw)
    unknown = sorted(set(body) - COMPLETION_REQUEST_FIELDS)
    if unknown:
        raise ValueError(unknown)
    prompt = body.get("prompt")
    stream = _field(body, "stream", bool, False)
    return prompt, stream


def models_payload():
    return {"object": "list", "data": []}
"""

SCHEMA_TABLE = {"list": ["data", "object"]}


def _write_table(tmp_path, objects):
    path = tmp_path / "http_schema.json"
    path.write_text(json.dumps({"version": 1, "objects": objects}))
    return path


def _schema_findings(source, tmp_path, objects=None):
    table = _write_table(
        tmp_path, SCHEMA_TABLE if objects is None else objects
    )
    module = Module.from_source(source, "pkg/serving/http.py")
    return schema.check_schema(module, table_path=table)


class TestSchemaPass:
    def test_clean_fixture_produces_nothing(self, tmp_path):
        assert _schema_findings(HTTP_SCHEMA_FIXTURE, tmp_path) == []

    def test_unlisted_read_field_flagged(self, tmp_path):
        source = HTTP_SCHEMA_FIXTURE.replace(
            'prompt = body.get("prompt")',
            'prompt = body.get("prompt")\n    extra = body.get("extra")',
        )
        findings = _schema_findings(source, tmp_path)
        assert [f.rule for f in findings] == ["schema-field-unlisted"]
        assert "'extra'" in findings[0].message

    def test_unread_allowlist_field_flagged(self, tmp_path):
        source = HTTP_SCHEMA_FIXTURE.replace(
            '{"prompt", "stream"}', '{"prompt", "stream", "ghost"}'
        )
        findings = _schema_findings(source, tmp_path)
        assert [f.rule for f in findings] == ["schema-field-unread"]
        assert "'ghost'" in findings[0].message

    def test_missing_rejection_flagged(self, tmp_path):
        source = HTTP_SCHEMA_FIXTURE.replace(
            "    unknown = sorted(set(body) - COMPLETION_REQUEST_FIELDS)\n"
            "    if unknown:\n"
            "        raise ValueError(unknown)\n",
            "",
        )
        findings = _schema_findings(source, tmp_path)
        assert [f.rule for f in findings] == ["unknown-fields-accepted"]

    def test_response_drift_both_directions(self, tmp_path):
        # Extra serialized key not in the table.
        source = HTTP_SCHEMA_FIXTURE.replace(
            '{"object": "list", "data": []}',
            '{"object": "list", "data": [], "surprise": 1}',
        )
        findings = _schema_findings(source, tmp_path)
        assert [f.rule for f in findings] == ["schema-response-drift"]
        assert "surprise" in findings[0].message
        # Table pins a kind the code never serializes.
        findings = _schema_findings(
            HTTP_SCHEMA_FIXTURE, tmp_path,
            objects={**SCHEMA_TABLE, "usage": ["total_tokens"]},
        )
        assert [f.rule for f in findings] == ["schema-response-drift"]
        assert "'usage'" in findings[0].message

    def test_missing_table_flagged(self, tmp_path):
        module = Module.from_source(
            HTTP_SCHEMA_FIXTURE, "pkg/serving/http.py"
        )
        findings = schema.check_schema(
            module, table_path=tmp_path / "nope.json"
        )
        assert [f.rule for f in findings] == ["schema-response-drift"]

    def test_real_tree_mutation_is_caught(self):
        # Dropping a field from the real allowlist must fail the linter.
        source = (REPRO_DIR / "serving" / "http.py").read_text()
        assert '"budget",' in source, "http.py allowlist shape changed"
        module = Module.from_source(
            source.replace('"budget",', "", 1), "src/repro/serving/http.py"
        )
        findings = schema.check_schema(module)
        assert any(
            f.rule == "schema-field-unlisted" and "'budget'" in f.message
            for f in findings
        )


# ---- suppression mechanics ---------------------------------------------------


class TestOverlays:
    def test_standalone_comment_covers_next_code_line(self):
        sup = Suppressions.parse(
            "import time\n"
            "# repro: allow(wall-clock): justified above the statement\n"
            "t = time.time()\n"
        )
        assert sup.covers(3, "wall-clock")
        assert not sup.covers(1, "wall-clock")

    def test_marker_inside_string_does_not_suppress(self):
        sup = Suppressions.parse(
            'text = "# repro: allow(wall-clock)"\n'
        )
        assert not sup.covers(1, "wall-clock")

    def test_star_covers_every_rule(self):
        sup = Suppressions.parse("x = 1  # repro: allow(*)\n")
        assert sup.covers(1, "wall-clock") and sup.covers(1, "unused-op")


# ---- mutation tests against the real tree ------------------------------------


def _copy_into(scan_root: Path, rel: str, source: Path, mutate=None) -> None:
    text = source.read_text()
    if mutate is not None:
        text = mutate(text)
    target = scan_root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


class TestMutationsAreCaught:
    def test_deleting_release_spec_arm_fails_the_linter(self, tmp_path):
        needle = (
            "        if not drafts:\n"
            "            self.pool.release_spec(reserved)\n"
        )
        source = (REPRO_DIR / "serving" / "server.py").read_text()
        assert needle in source, "server.py spec-propose shape changed"
        _copy_into(
            tmp_path, "pkg/serving/server.py",
            REPRO_DIR / "serving" / "server.py",
            mutate=lambda t: t.replace(needle, "        if not drafts:\n"),
        )
        report = scan(tmp_path)
        assert "spec-reservation-leak" in rules_of(report)
        # The unmutated copy is clean — the finding is the mutation's.
        _copy_into(
            tmp_path, "pkg/serving/server.py",
            REPRO_DIR / "serving" / "server.py",
        )
        assert scan(tmp_path).findings == []

    def test_deleting_op_handler_fails_the_linter(self, tmp_path):
        engine = REPRO_DIR / "serving" / "engine"
        _copy_into(
            tmp_path, "pkg/serving/engine/worker.py", engine / "worker.py",
            mutate=lambda t: t.replace("def _op_abort", "def _disabled_abort"),
        )
        _copy_into(
            tmp_path, "pkg/serving/engine/executor.py",
            engine / "executor.py",
        )
        report = scan(tmp_path)
        unknown = [f for f in report.findings if f.rule == "unknown-op"]
        assert unknown and "abort" in unknown[0].message


# ---- self-check: the shipped tree is clean -----------------------------------


class TestShippedTree:
    def test_src_repro_clean(self):
        report = run([REPRO_DIR])
        assert report.errors == []
        assert report.findings == [], report.render_text()
        assert report.n_files > 50  # the whole package was actually scanned

    def test_cli_json_exit_zero(self):
        env = dict(os.environ)
        src = str(REPRO_DIR.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["exit_code"] == 0
        assert payload["n_findings"] == 0

    def test_cli_has_no_baseline_flags(self, capsys):
        """There is no grandfather baseline: every finding fails the gate,
        and the old flags are refused as unknown arguments."""
        for flag in ("--baseline", "--no-baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as exc:
                analysis_main([flag])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
