"""Pass 3 — worker wire protocol: dispatched ops vs issued ops.

:class:`~repro.serving.engine.worker.WorkerCore` dispatches ``(op,
args)`` commands to ``_op_<name>`` methods; the executor issues them as
string literals through ``handle.call("op", ...)`` /
``self._fan_out("op", ...)`` (the same call on every live handle) /
``_send("op", (args...))`` / ``conn.send(("op", (args...)))``. Nothing
ties the two sides together at runtime except an ``unknown worker op``
ValueError in production — this pass ties them together at lint time:

- ``unknown-op``: an op issued somewhere that no ``_op_<name>`` handler
  (or the pipe loop's inline ``shutdown``) dispatches — the exact
  failure deleting a handler produces.
- ``op-arity-mismatch``: an issue site whose positional argument count
  cannot satisfy the handler's signature.
- ``unused-op``: a handler no scanned issuer ever sends — dead
  protocol surface (suppressible for ops addressed to tests or
  external tooling).

Issue-site recognition is syntactic: the op must be a string literal in
one of the shapes above. Dynamic dispatch (``self._send(op,
args)`` forwarding a variable) is invisible and deliberately ignored —
the protocol's ground truth is the literal vocabulary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.astutil import Module, attr_tail
from repro.analysis.findings import Finding

RULES = ("unknown-op", "unused-op", "op-arity-mismatch")

HANDLER_PREFIX = "_op_"
ISSUER_METHODS = frozenset({"call", "handle", "_fan_out"})
SEND_METHODS = frozenset({"_send", "send"})


@dataclass(frozen=True)
class Handler:
    """One ``_op_<name>`` method: its op and positional-arity window."""

    op: str
    min_args: int
    max_args: int | None  # None = *args
    node_line: int

    def accepts(self, n_args: int) -> bool:
        if n_args < self.min_args:
            return False
        return self.max_args is None or n_args <= self.max_args


@dataclass(frozen=True)
class IssueSite:
    op: str
    n_args: int | None  # None when the arg tuple is not a literal
    node: ast.AST


def collect_handlers(module: Module) -> dict[str, Handler]:
    """Every ``_op_*`` method plus inline string-compare dispatch arms."""
    handlers: dict[str, Handler] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith(HANDLER_PREFIX):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional and positional[0] in ("self", "cls"):
                positional = positional[1:]
            n_defaults = len(args.defaults)
            handlers[node.name[len(HANDLER_PREFIX):]] = Handler(
                op=node.name[len(HANDLER_PREFIX):],
                min_args=len(positional) - n_defaults,
                max_args=None if args.vararg else len(positional),
                node_line=node.lineno,
            )
        elif isinstance(node, ast.Compare):
            # `if op == "shutdown":` — the pipe loop's inline arm.
            if (
                isinstance(node.left, ast.Name)
                and node.left.id == "op"
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq,))
                and len(node.comparators) == 1
                and isinstance(node.comparators[0], ast.Constant)
                and isinstance(node.comparators[0].value, str)
            ):
                op = node.comparators[0].value
                handlers.setdefault(
                    op, Handler(op=op, min_args=0, max_args=0,
                                node_line=node.lineno)
                )
    return handlers


def collect_issue_sites(module: Module) -> list[IssueSite]:
    sites: list[IssueSite] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        tail = attr_tail(node.func)
        if tail in ISSUER_METHODS:
            # handle.call("op", a, b) / self._fan_out("op", a, b) /
            # core.handle("op", (a, b))
            if node.args and _str_const(node.args[0]) is not None:
                op = _str_const(node.args[0])
                if tail == "handle":
                    # handle(op, args_tuple)
                    n = _tuple_len(node.args[1]) if len(node.args) > 1 else 0
                else:
                    n = len(node.args) - 1
                sites.append(IssueSite(op=op, n_args=n, node=node))
        elif tail in SEND_METHODS and node.args:
            first = node.args[0]
            if _str_const(first) is not None and len(node.args) >= 2:
                # self._send("op", (a, b))
                sites.append(
                    IssueSite(
                        op=_str_const(first),
                        n_args=_tuple_len(node.args[1]),
                        node=node,
                    )
                )
            elif isinstance(first, ast.Tuple) and len(first.elts) == 2:
                # conn.send(("op", (a, b)))
                op = _str_const(first.elts[0])
                if op is not None:
                    sites.append(
                        IssueSite(
                            op=op,
                            n_args=_tuple_len(first.elts[1]),
                            node=node,
                        )
                    )
    return sites


def _str_const(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _tuple_len(node: ast.AST) -> int | None:
    if isinstance(node, ast.Tuple):
        if any(isinstance(e, ast.Starred) for e in node.elts):
            return None
        return len(node.elts)
    return None


def check_protocol(
    worker: Module, issuers: list[Module]
) -> list[Finding]:
    handlers = collect_handlers(worker)
    findings: list[Finding] = []
    issued_ops: set[str] = set()
    for issuer in issuers:
        for site in collect_issue_sites(issuer):
            issued_ops.add(site.op)
            handler = handlers.get(site.op)
            if handler is None:
                findings.append(
                    issuer.finding(
                        site.node,
                        "unknown-op",
                        f"op {site.op!r} is issued but {worker.path} has no "
                        f"_op_{site.op} handler; the worker would raise "
                        "'unknown worker op' at runtime",
                    )
                )
            elif site.n_args is not None and not handler.accepts(site.n_args):
                expected = (
                    f">= {handler.min_args}"
                    if handler.max_args is None
                    else f"{handler.min_args}"
                    if handler.min_args == handler.max_args
                    else f"{handler.min_args}..{handler.max_args}"
                )
                findings.append(
                    issuer.finding(
                        site.node,
                        "op-arity-mismatch",
                        f"op {site.op!r} issued with {site.n_args} args but "
                        f"_op_{site.op} takes {expected}",
                    )
                )
    # Ops the worker itself issues internally (e.g. tests driving
    # core.handle) also count as exercised.
    for site in collect_issue_sites(worker):
        issued_ops.add(site.op)
    for op, handler in sorted(handlers.items()):
        if op not in issued_ops:
            finding = Finding(
                path=worker.path,
                line=handler.node_line,
                col=1,
                rule="unused-op",
                message=(
                    f"handler _op_{op} is never issued by any scanned "
                    "executor; dead protocol surface (suppress if it is "
                    "addressed to tests or external tooling)"
                ),
                snippet=worker.snippet(handler.node_line),
            )
            findings.append(finding)
    return sorted(findings)
