"""CLI for the invariant linter: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (after inline suppressions), 1 findings or
unparseable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.runner import ALL_RULES, RULE_DOCS, run


def _default_paths() -> list[Path]:
    # The repro package itself: src/repro, wherever it is installed.
    return [Path(__file__).resolve().parent.parent]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static invariant linter: determinism, pool resource pairing, "
            "worker wire protocol, HTTP error contract, HTTP schema."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule subset to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule:24s} {RULE_DOCS.get(rule, '')}")
        return 0

    rules: set[str] | None = None
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    paths = args.paths or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    report = run(paths, rules=rules)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
