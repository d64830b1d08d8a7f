"""Tokens of the rule / procedure language and of metadata queries.

TOKEN_RE holds every token kind as a named group, and its ERROR group
takes any one character, so finditer matches the whole text. Rule and
procedure texts skip WS (any Unicode whitespace) and COMMENT ("#" to end
of line); a metadata query (catalog.AvuPredicate) skips only WS.
Identifiers may be dotted; keywords are reserved identifiers. String
literals have three escapes, \\" \\\\ and \\n: unescape decodes them and
escape_string writes them. tokenize is total over arbitrary input: what
is not a token raises ParseError with its line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = frozenset({
    "rule", "priority", "on", "when", "do", "procedure",
    "if", "else", "foreach", "in", "allow", "deny",
    "matches", "true", "false",
})

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*"
# A string literal's body: no quote, backslash or newline except in one
# of the three escapes. INT is [0-9], not \d, which also takes U+00B3.
_BODY = r'[^"\\\n]*(?:\\["\\n][^"\\\n]*)*'
TOKEN_RE = re.compile(rf"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<VAR>\${_IDENT})
  | (?P<NAME>{_IDENT})
  | (?P<INT>[0-9]+)
  | (?P<STRING>"{_BODY}")
  | (?P<OP>==|!=|<=|>=|&&|\|\||[-()={{}}<>+*/;,!])
  | (?P<ERROR>.)
""", re.VERBOSE)
_STRING_START = re.compile(f'"{_BODY}')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}


class Token(NamedTuple):
    kind: str   # NAME KEYWORD VAR INT STRING OP EOF
    value: str
    line: int
    column: int

    @property
    def int_value(self) -> int:
        return int(self.value)


def unescape(body: str) -> str:
    """The text of a STRING token, given without its quotes."""
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], body)


def escape_string(s: str) -> str:
    """The body of a string literal that unescape reads back as s."""
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first char
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[0]
        start = m.start()
        if kind == "WS" or kind == "COMMENT":
            if "\n" in value:  # only WS holds one
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "NAME":
            if value in KEYWORDS:
                kind = "KEYWORD"
        elif kind == "STRING":
            value = unescape(value[1:-1])
        elif kind == "VAR":
            value = value[1:]
        elif kind == "INT":
            if len(value) > 19:  # definitely exceeds 2**63
                raise ParseError("integer literal out of range", line, col)
        elif kind == "ERROR":
            raise _error(text, start, line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _error(text: str, start: int, line: int, col: int) -> ParseError:
    """Why no token but ERROR starts at text[start]."""
    ch = text[start]
    if ch == "$":
        return ParseError("expected variable name after '$'", line, col)
    if ch != '"':
        return ParseError(f"unexpected character {ch!r}", line, col)
    # The literal stops at a newline, at the end, or at a backslash.
    end = _STRING_START.match(text, start).end()
    if text[end:end + 1] != "\\" or end + 1 == len(text):
        return ParseError("unterminated string", line, col)
    return ParseError(f"unknown escape '\\{text[end + 1]}'", line,
                      col + end - start)
