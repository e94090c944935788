"""Pass 5 — HTTP schema lint: the wire shapes http.py actually speaks.

The HTTP frontend promises an OpenAI-compatible surface, which drifts
in two directions the type system cannot see:

- **request side** — ``parse_completion_body`` reads fields out of the
  JSON body while ``COMPLETION_REQUEST_FIELDS`` is the allowlist the
  unknown-field rejection enforces. A field read but not allowlisted
  can never arrive (the 400 fires first); an allowlisted field never
  read is accepted and silently ignored. Both are schema drift.
- **response side** — the dict literals the endpoints serialize are
  the de-facto response schema. Their key sets are pinned against the
  committed table ``http_schema.json`` (change the wire shape, change
  the table, and the diff shows up in review).

Rules:

- ``unknown-fields-accepted``: the parser never checks the body
  against the allowlist (or the allowlist is missing) — unknown
  fields would be silently dropped.
- ``schema-field-unlisted``: the parser reads a body field the
  allowlist omits; clients sending it are rejected before parse.
- ``schema-field-unread``: the allowlist names a field the parser
  never reads; it is accepted and ignored.
- ``schema-response-drift``: a serialized response shape's key set
  does not match the committed table (extra, missing, or an object
  kind absent from either side).

Response shapes are discovered structurally: every dict literal with a
constant ``"object"`` tag contributes its keys to that kind (unioned
across the streaming and non-streaming paths), and the nested
``choices`` / ``usage`` / ``error`` payloads are tracked as their own
kinds.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.astutil import Module, mentions_name
from repro.analysis.findings import Finding

RULES = (
    "unknown-fields-accepted",
    "schema-field-unlisted",
    "schema-field-unread",
    "schema-response-drift",
)

ALLOWLIST_NAME = "COMPLETION_REQUEST_FIELDS"
PARSER_NAME = "parse_completion_body"
BODY_ARG = "body"

DEFAULT_TABLE = Path(__file__).resolve().parent / "http_schema.json"
TABLE_VERSION = 1

# Dict keys whose (nested) values are response shapes of their own.
_NESTED_KINDS = {"usage": "usage", "error": "error"}
_NESTED_LIST_KINDS = {"choices": "choice"}


def load_table(path: Path = DEFAULT_TABLE) -> dict[str, set[str]] | None:
    """The committed kind -> key-set table, or None when unusable."""
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if data.get("version") != TABLE_VERSION:
        return None
    objects = data.get("objects")
    if not isinstance(objects, dict):
        return None
    table: dict[str, set[str]] = {}
    for kind, keys in objects.items():
        if not isinstance(keys, list) or not all(
            isinstance(k, str) for k in keys
        ):
            return None
        table[str(kind)] = set(keys)
    return table


def _str_constants(node: ast.AST) -> set[str]:
    return {
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


def collect_allowlist(
    module: Module,
) -> tuple[set[str] | None, ast.AST | None]:
    """The ``COMPLETION_REQUEST_FIELDS`` literal's members, if assigned."""
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == ALLOWLIST_NAME
        ):
            return _str_constants(node.value), node
    return None, None


def collect_read_fields(
    parser: ast.FunctionDef,
) -> dict[str, ast.AST]:
    """Body fields the parser reads: ``body.get(...)`` / ``_field(body, ...)``."""
    fields: dict[str, ast.AST] = {}

    def record(name_node: ast.AST) -> None:
        if isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            fields.setdefault(name_node.value, name_node)

    for node in ast.walk(parser):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, ast.Name)
            and func.value.id == BODY_ARG
        ):
            record(node.args[0])
        elif (
            isinstance(func, ast.Name)
            and func.id == "_field"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == BODY_ARG
        ):
            record(node.args[1])
    return fields


def collect_response_shapes(
    module: Module,
) -> dict[str, tuple[set[str], ast.AST]]:
    """Union of serialized keys per response-object kind, with an anchor."""
    shapes: dict[str, tuple[set[str], ast.AST]] = {}

    def add(kind: str, keys: set[str], node: ast.AST) -> None:
        if kind in shapes:
            shapes[kind][0].update(keys)
        else:
            shapes[kind] = (set(keys), node)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Dict):
            continue
        keys: dict[str, ast.AST] = {}
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys[key.value] = value
        tag = keys.get("object")
        if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
            add(tag.value, set(keys), node)
        for name, kind in _NESTED_KINDS.items():
            value = keys.get(name)
            if isinstance(value, ast.Dict):
                add(kind, _dict_keys(value), value)
        for name, kind in _NESTED_LIST_KINDS.items():
            value = keys.get(name)
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Dict):
                        add(kind, _dict_keys(element), element)
    return shapes


def _dict_keys(node: ast.Dict) -> set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _find_parser(module: Module) -> ast.FunctionDef | None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and node.name == PARSER_NAME:
            return node
    return None


def check_schema(
    http: Module, table_path: Path = DEFAULT_TABLE
) -> list[Finding]:
    findings: list[Finding] = []
    allowlist, allow_node = collect_allowlist(http)
    parser = _find_parser(http)

    if parser is None or allowlist is None or not mentions_name(
        parser, ALLOWLIST_NAME
    ):
        findings.append(
            Finding(
                path=http.path,
                line=getattr(parser, "lineno", 1),
                col=1,
                rule="unknown-fields-accepted",
                message=(
                    f"{PARSER_NAME} does not reject unknown body fields "
                    f"against {ALLOWLIST_NAME}; client typos would be "
                    "silently dropped"
                ),
                snippet=http.snippet(getattr(parser, "lineno", 1)),
            )
        )

    if parser is not None and allowlist is not None:
        read = collect_read_fields(parser)
        for name in sorted(set(read) - allowlist):
            findings.append(
                http.finding(
                    read[name],
                    "schema-field-unlisted",
                    f"{PARSER_NAME} reads body field {name!r} but "
                    f"{ALLOWLIST_NAME} omits it; clients sending it are "
                    "rejected before the parser ever sees it",
                )
            )
        for name in sorted(allowlist - set(read)):
            findings.append(
                http.finding(
                    allow_node,
                    "schema-field-unread",
                    f"{ALLOWLIST_NAME} allows body field {name!r} but "
                    f"{PARSER_NAME} never reads it; the field is accepted "
                    "and silently ignored",
                )
            )

    table = load_table(table_path)
    shapes = collect_response_shapes(http)
    if table is None:
        findings.append(
            Finding(
                path=http.path,
                line=1,
                col=1,
                rule="schema-response-drift",
                message=(
                    f"committed schema table {table_path.name} is missing "
                    "or malformed; response shapes cannot be pinned"
                ),
                snippet="",
            )
        )
        return sorted(findings)
    for kind in sorted(set(shapes) - set(table)):
        keys, node = shapes[kind]
        findings.append(
            http.finding(
                node,
                "schema-response-drift",
                f"response object kind {kind!r} (keys: "
                f"{', '.join(sorted(keys))}) is not in the committed "
                "schema table",
            )
        )
    for kind in sorted(set(table) - set(shapes)):
        findings.append(
            Finding(
                path=http.path,
                line=1,
                col=1,
                rule="schema-response-drift",
                message=(
                    f"committed schema table pins object kind {kind!r} "
                    "but the HTTP layer never serializes it"
                ),
                snippet="",
            )
        )
    for kind in sorted(set(shapes) & set(table)):
        keys, node = shapes[kind]
        missing = sorted(table[kind] - keys)
        extra = sorted(keys - table[kind])
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {', '.join(missing)}")
            if extra:
                detail.append(f"extra {', '.join(extra)}")
            findings.append(
                http.finding(
                    node,
                    "schema-response-drift",
                    f"response object {kind!r} drifted from the committed "
                    f"schema table ({'; '.join(detail)})",
                )
            )
    return sorted(findings)
