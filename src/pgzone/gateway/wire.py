"""HTTP/1.1 message heads, read alike by the gateway and its client.

Header lines are read up to the blank line with http.server's limits (64
KiB a line, 100 lines: 431). What could let two parsers disagree on where
a message ends is refused (RFC 9112 §6.3): any Transfer-Encoding (501),
and with 400 a line not ended by CRLF, a folded line, a line with no
colon, and a repeated or non-numeric Content-Length. A repeated field
joins its values with ", " (RFC 9110 §5.3), which catches the last.

Head takes the lines one at a time, so the gateway can feed it each line
as it arrives; read_head feeds it from a file.
"""

from __future__ import annotations

import re

MAX_LINE = 65536
MAX_HEADERS = 100

# A field line: a token, a colon, the value with its outer blanks. The
# blanks are stripped apart: a lazy value between two [ \t]* would take
# time quadratic in a run of blanks inside it.
_FIELD = re.compile(r"([-!#$%&'*+.^_`|~0-9A-Za-z]+):([^\r\n\0]*)\r\n")


class FramingError(Exception):
    """A message head that cannot be read; a server answers `status`."""

    def __init__(self, detail: str, status: int = 400):
        super().__init__(detail)
        self.status = status


class Headers(dict):
    """Header values (latin-1) by lower-case name; lookups take any case."""

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def __contains__(self, name) -> bool:
        return super().__contains__(name.lower())

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class Head:
    """The header lines of one message, taken up to the blank line."""

    def __init__(self) -> None:
        self.headers = Headers()
        self.fields = 0

    def take(self, line: bytes | bytearray) -> bool:
        """Take one line with its line end, of MAX_LINE bytes at most;
        True if it is the blank line that ends the head."""
        if line == b"\r\n":
            return True
        field = _FIELD.fullmatch(line.decode("latin-1"))
        if field is None:
            raise FramingError(f"malformed header line {bytes(line[:80])!r}")
        self.fields += 1
        if self.fields > MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} header lines", 431)
        name, value = field[1].lower(), field[2].strip(" \t")
        before = dict.get(self.headers, name)  # name is lower case already
        self.headers[name] = value if before is None else f"{before}, {value}"
        return False

    def length(self) -> int | None:
        """The body length the whole head declares (None when it declares
        none)."""
        if "transfer-encoding" in self.headers:
            raise FramingError("Transfer-Encoding is not supported", 501)
        length = self.headers.get("content-length")
        if length is not None and not (
                length.isascii() and length.isdigit() and len(length) <= 18):
            raise FramingError(f"bad Content-Length {length!r}")
        return None if length is None else int(length)


def read_head(rfile) -> tuple[Headers, int | None]:
    """The header lines read from rfile up to the blank line, and the
    body length they declare (None when they declare none)."""
    head = Head()
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError("header line too long", 431)
        if head.take(line):
            break
    return head.headers, head.length()
