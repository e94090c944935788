"""Finding records and inline suppressions.

Every pass reports :class:`Finding`s; the runner then drops those covered
by an inline suppression before anything reaches the user: a
``# repro: allow(<rule>[, <rule>...])`` comment, optionally followed by
``: reason``. A suppression on a code line covers that line; a
suppression on a standalone comment line covers the next code line (for
statements too long to share a line with their justification).
``allow(*)`` covers every rule.

Comments are read with :mod:`tokenize`, not a regex over raw lines, so
string literals that merely *contain* the marker text never suppress
anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([*\w\-, ]+?)\s*\)(?::.*)?$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix-style, as scanned (relative to the scan root)
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""  # stripped source line

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }


class Suppressions:
    """Per-file map of which rules are allowed on which lines."""

    def __init__(self, allowed: dict[int, set[str]]):
        self._allowed = allowed

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        allowed: dict[int, set[str]] = {}
        # line -> True when any non-comment, non-NL token lives there
        code_lines: set[int] = set()
        comments: list[tuple[int, str, bool]] = []  # (line, text, standalone)
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(source).readline)
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return cls({})
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                line = tok.start[0]
                standalone = line not in code_lines
                comments.append((line, tok.string, standalone))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                for ln in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(ln)
        for line, text, standalone in comments:
            match = SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            if standalone:
                # Cover the next code line below the comment.
                target = line + 1
                while target not in code_lines and target <= line + 50:
                    target += 1
            else:
                target = line
            allowed.setdefault(target, set()).update(rules)
        return cls(allowed)

    def covers(self, line: int, rule: str) -> bool:
        rules = self._allowed.get(line)
        return rules is not None and (rule in rules or "*" in rules)
