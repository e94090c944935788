"""Static invariant analysis for the reproduction (``python -m repro.analysis``).

Five AST-based passes enforce, at lint time, the invariants the test
suite otherwise only catches after the fact:

1. **determinism** (:mod:`repro.analysis.determinism`) — wall-clock
   reads, unseeded RNGs, set-order iteration and unblessed matmuls in
   the bit-identity-critical packages;
2. **resource pairing** (:mod:`repro.analysis.resources`) — a CFG walk
   proving ``reserve_spec`` reaches ``promote_spec``/``release_spec``
   on every path, and that pool frees are exception-safe;
3. **worker protocol** (:mod:`repro.analysis.protocol`) — the ops the
   executor issues vs the ops ``WorkerCore`` dispatches, with arity;
4. **error contract** (:mod:`repro.analysis.contract`) — every
   ``http_status``-carrying error type vs the HTTP layer's mapper;
5. **HTTP schema** (:mod:`repro.analysis.schema`) — the completions
   request allowlist vs the fields the parser reads, and serialized
   response key sets vs the committed ``http_schema.json`` table.

Findings are filtered by inline ``# repro: allow(<rule>)`` suppressions
(see :mod:`repro.analysis.findings`). The runner lives in
:mod:`repro.analysis.runner`; the CLI in ``__main__``.
"""

from repro.analysis.findings import Finding, Suppressions
from repro.analysis.runner import ALL_RULES, Report, run

__all__ = [
    "ALL_RULES",
    "Finding",
    "Report",
    "Suppressions",
    "run",
]
