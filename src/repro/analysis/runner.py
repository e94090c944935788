"""Orchestrates the five passes over a file tree and applies overlays.

The flow: discover ``*.py`` files, parse each once into a
:class:`~repro.analysis.astutil.Module`, run the per-file passes
(determinism, resource pairing), locate the cross-file pass inputs by
path suffix (worker/executor for the protocol pass, errors/http for
the contract pass, http alone for the schema pass), then subtract
inline suppressions. :func:`run` returns a
:class:`Report`; the CLI in :mod:`repro.analysis.__main__` turns it into
text or JSON and an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import contract, determinism, protocol, resources, schema
from repro.analysis.astutil import Module
from repro.analysis.findings import Finding

WORKER_SUFFIX = ("serving", "engine", "worker.py")
ISSUER_SUFFIXES = (("serving", "engine", "executor.py"),)
ERRORS_SUFFIX = ("api", "errors.py")
HTTP_SUFFIX = ("serving", "http.py")

ALL_RULES: tuple[str, ...] = (
    determinism.RULES
    + resources.RULES
    + protocol.RULES
    + contract.RULES
    + schema.RULES
)

RULE_DOCS: dict[str, str] = {
    "wall-clock": "wall-clock read in deterministic code",
    "unseeded-rng": "unseeded / global-state randomness",
    "set-iteration": "iteration over hash-salted set order",
    "row-fused-matmul": "matmul in models/ outside tensor.ops.linear_rows",
    "spec-reservation-leak": "reserve_spec not paired on every path",
    "free-in-try-body": "pool free skippable by an exception",
    "unknown-op": "issued worker op with no handler",
    "unused-op": "worker op handler never issued",
    "op-arity-mismatch": "issued args cannot satisfy the handler",
    "unmapped-error-status": "error http_status the HTTP mapper ignores",
    "unknown-contract-status": "mapped status no error type carries",
    "error-missing-code": "http_status without a code slug",
    "duplicate-error-code": "two error types share a code slug",
    "unknown-fields-accepted": "completions parser skips the allowlist check",
    "schema-field-unlisted": "parsed body field the allowlist omits",
    "schema-field-unread": "allowlisted body field never parsed",
    "schema-response-drift": "response keys vs the committed schema table",
}


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)  # actionable
    suppressed: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # unparseable files
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.errors else 0

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "n_findings": len(self.findings),
            "n_suppressed": len(self.suppressed),
            "n_files": self.n_files,
            "errors": self.errors,
            "exit_code": self.exit_code,
        }

    def render_text(self) -> str:
        lines = [f.render() for f in sorted(self.findings)]
        for err in self.errors:
            lines.append(f"error: {err}")
        lines.append(
            f"{len(self.findings)} finding(s) in {self.n_files} file(s) "
            f"({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def discover(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving order.
    seen: set[Path] = set()
    unique = []
    for f in files:
        resolved = f.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(f)
    return unique


def _display_path(path: Path, roots: list[Path]) -> str:
    resolved = path.resolve()
    for root in roots:
        try:
            return resolved.relative_to(root.resolve().parent).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def _endswith(module: Module, suffix: tuple[str, ...]) -> bool:
    return module.segments[-len(suffix):] == suffix


def run(paths: list[Path], rules: set[str] | None = None) -> Report:
    """Run every pass over ``paths`` and apply inline suppressions."""
    report = Report()
    modules: list[Module] = []
    roots = [p for p in paths if p.is_dir()]
    for path in discover(paths):
        display = _display_path(path, roots)
        try:
            modules.append(Module.parse(path, display))
        except (SyntaxError, UnicodeDecodeError) as err:
            report.errors.append(f"{display}: {err}")
    report.n_files = len(modules)

    raw: list[Finding] = []
    for module in modules:
        raw.extend(determinism.check_module(module))
        raw.extend(resources.check_module(module))

    workers = [m for m in modules if _endswith(m, WORKER_SUFFIX)]
    issuers = [
        m for m in modules
        if any(_endswith(m, s) for s in ISSUER_SUFFIXES)
    ]
    for worker in workers:
        raw.extend(protocol.check_protocol(worker, issuers))

    errors_mods = [m for m in modules if _endswith(m, ERRORS_SUFFIX)]
    http_mods = [m for m in modules if _endswith(m, HTTP_SUFFIX)]
    for errors_mod in errors_mods:
        for http_mod in http_mods:
            raw.extend(contract.check_contract(errors_mod, http_mod))
    for http_mod in http_mods:
        raw.extend(schema.check_schema(http_mod))

    if rules is not None:
        raw = [f for f in raw if f.rule in rules]

    by_path = {m.path: m for m in modules}
    for finding in sorted(raw):
        module = by_path.get(finding.path)
        if module is not None and module.suppressions.covers(
            finding.line, finding.rule
        ):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report
