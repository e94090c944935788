"""Pass 1 — determinism: wall clocks, unseeded RNGs, set iteration, matmuls.

The reproduction's north star is bit-identical token streams across
batching, chunking, speculation and cluster placement. Four source patterns are
the recurring ways that property quietly dies:

- ``wall-clock``: ``time.time()``/``monotonic()``/``datetime.now()``
  reads inside the deterministic core. The serving stack runs on a
  *virtual* step clock; real-time reads make schedules (and therefore
  preemption victims, eviction order, streams) depend on host load.
  ``time.sleep`` is deliberately not flagged — pacing dwell changes
  wall latency, never state.
- ``unseeded-rng``: ``np.random.default_rng()`` with no seed, the
  module-level ``np.random.*`` convenience samplers, and stdlib
  ``random.*`` module functions. All randomness must flow from an
  explicit seeded generator handed down by config.
- ``set-iteration``: ``for``/comprehension iteration directly over a
  set expression. Python set order is salted per process; any schedule
  or selection derived from it diverges across runs and workers.
  Wrapping in ``sorted(...)`` is the blessed fix and is not flagged.
- ``row-fused-matmul`` (``models/`` only): any ``@`` / ``np.matmul`` /
  ``np.dot`` outside the blessed :func:`repro.tensor.ops.linear_rows`
  helper. Row-fused ``(n, d) @ W.T`` is *not* bit-stable under BLAS
  (reduction order changes with the number of rows); per-row GEMM
  slices are. Sites that are shape-stable by construction (per-head
  scores, >=3-D batched matmuls, 1-row projections) carry explicit
  ``# repro: allow(row-fused-matmul)`` justifications.

Scope: files whose path contains a ``serving``, ``kvcache``, ``models``
or ``retrieval`` segment; ``experiments`` and ``benchmarks`` segments
are allowlisted wholesale (wall-clock timing is their entire point).
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import ImportMap, Module, call_name, dotted_name
from repro.analysis.findings import Finding

RULES = ("wall-clock", "unseeded-rng", "set-iteration", "row-fused-matmul")

DETERMINISTIC_SEGMENTS = frozenset(
    {"serving", "kvcache", "models", "retrieval"}
)
ALLOWLISTED_SEGMENTS = frozenset({"experiments", "benchmarks", "tests"})
MATMUL_SEGMENTS = frozenset({"models"})

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# Module-level convenience samplers: global hidden state, never seedable
# per call site.
NP_RANDOM_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "normal", "uniform", "standard_normal",
        "beta", "binomial", "exponential", "poisson", "sample", "bytes",
    }
)
STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "normalvariate", "gauss", "getrandbits",
        "expovariate", "paretovariate", "triangular", "betavariate",
    }
)


def _is_set_expr(node: ast.AST, local_sets: set[str]) -> bool:
    """Syntactic set detection: literals, set()/frozenset(), set algebra."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        # set(...).difference(...) / .union(...) / .intersection(...)
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "difference", "union", "intersection", "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, local_sets)
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)
    ):
        return _is_set_expr(node.left, local_sets) or _is_set_expr(
            node.right, local_sets
        )
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: Module, check_matmul: bool):
        self.module = module
        self.imports = ImportMap(module.tree)
        self.check_matmul = check_matmul
        self.findings: list[Finding] = []
        # Function-local names assigned a syntactic set expression.
        self._local_sets: list[set[str]] = [set()]

    # ---- scope tracking --------------------------------------------------------

    def _visit_function(self, node) -> None:
        self._local_sets.append(set())
        self.generic_visit(node)
        self._local_sets.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self._local_sets[-1]):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._local_sets[-1].add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._local_sets[-1].discard(target.id)
        self.generic_visit(node)

    # ---- wall clock + rng ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(call_name(node))
        if resolved in WALL_CLOCK_CALLS:
            self.findings.append(
                self.module.finding(
                    node,
                    "wall-clock",
                    f"wall-clock read {resolved}() in deterministic code; "
                    "use the virtual step clock (server.clock) or suppress "
                    "with a justification",
                )
            )
        else:
            self._check_rng(node, resolved)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, resolved: str | None) -> None:
        if resolved is None:
            return
        if resolved.endswith(".default_rng") or resolved == "default_rng":
            if not node.args and not node.keywords:
                self.findings.append(
                    self.module.finding(
                        node,
                        "unseeded-rng",
                        "default_rng() without a seed is entropy-seeded; "
                        "thread an explicit seed from config",
                    )
                )
            return
        parts = resolved.split(".")
        if (
            len(parts) >= 3
            and parts[-3] == "numpy"
            and parts[-2] == "random"
            and parts[-1] in NP_RANDOM_FUNCS
        ) or (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in STDLIB_RANDOM_FUNCS
        ):
            self.findings.append(
                self.module.finding(
                    node,
                    "unseeded-rng",
                    f"{resolved}() draws from hidden global RNG state; "
                    "use a seeded np.random.Generator",
                )
            )
        elif resolved in ("random.Random", "numpy.random.RandomState"):
            if not node.args and not node.keywords:
                self.findings.append(
                    self.module.finding(
                        node,
                        "unseeded-rng",
                        f"{resolved}() constructed without a seed",
                    )
                )

    # ---- set iteration ---------------------------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self._local_sets[-1]):
            self.findings.append(
                self.module.finding(
                    iter_node,
                    "set-iteration",
                    "iteration over a set: order is hash-salted per process; "
                    "wrap in sorted(...) before it can feed scheduling or "
                    "selection order",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_holder(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is fine (result is a set either way);
        # only ordered collections built from sets are order-sensitive.
        self.generic_visit(node)

    # ---- matmul ----------------------------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.check_matmul and isinstance(node.op, ast.MatMult):
            self.findings.append(
                self.module.finding(
                    node,
                    "row-fused-matmul",
                    "bare @ in models/: row-fused GEMMs are not bit-stable "
                    "under BLAS; route through tensor.ops.linear_rows or "
                    "justify with repro: allow(row-fused-matmul)",
                )
            )
        self.generic_visit(node)


def check_module(module: Module) -> list[Finding]:
    segments = set(module.segments)
    if ALLOWLISTED_SEGMENTS & segments:
        return []
    in_scope = bool(DETERMINISTIC_SEGMENTS & segments)
    if not in_scope:
        return []
    check_matmul = bool(MATMUL_SEGMENTS & segments)
    visitor = _DeterminismVisitor(module, check_matmul)
    visitor.visit(module.tree)
    findings = visitor.findings
    if check_matmul:
        findings += _matmul_calls(module)
    return sorted(findings)


def _matmul_calls(module: Module) -> list[Finding]:
    imports = ImportMap(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imports.resolve(dotted_name(node.func)) or ""
        if resolved in ("numpy.matmul", "numpy.dot") or resolved.endswith(
            (".matmul", ".dot")
        ) and resolved.split(".")[0] in ("numpy", "np"):
            findings.append(
                module.finding(
                    node,
                    "row-fused-matmul",
                    f"{resolved}() in models/: route through "
                    "tensor.ops.linear_rows or justify with "
                    "repro: allow(row-fused-matmul)",
                )
            )
    return findings
