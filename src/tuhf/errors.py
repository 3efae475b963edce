"""Shared exception hierarchy, and the line grammar of every input file.

Input-format problems (bad literals, malformed files) are kept apart
from domain errors (well-formed data violating an operation's contract)
so the command-line driver can map them to distinct exit codes.
"""

from typing import Iterator


class TuhfError(Exception):
    """Base class for every library error."""


class FormatError(TuhfError):
    """Malformed textual input: literals, descriptors, data files."""


class DomainError(TuhfError):
    """Structurally valid input that violates an operation's contract."""


# Every line boundary of ``str.splitlines`` but "\n"
_RARE_BOUNDARIES = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# From this length on, a text is scanned for "\n" with ``str.find``, which
# skips along long lines; below it ``splitlines`` is faster.
_SCAN_MIN = 4096


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    r"""(line number from 1, stripped content) of each line of ``text``
    that is not blank once its ``#`` comment is cut.

    Lines end where ``str.splitlines`` ends them: at "\n", "\r",
    "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", U+2028 and
    U+2029.  A text of ``_SCAN_MIN`` characters or more whose only
    boundary is "\n" is read in place by ``_scan_lines``; any other text
    is split with ``splitlines``.
    """
    if len(text) >= _SCAN_MIN and not any(c in text for c in _RARE_BOUNDARIES):
        yield from _scan_lines(text)
        return
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _scan_lines(text: str) -> Iterator[tuple[int, str]]:
    """``_content_lines`` of a text whose only line boundary is "\n":
    each line's end and ``#`` are found with ``str.find``, so the content
    of a line is its one copy."""
    lineno, start, size = 0, 0, len(text)
    while start < size:
        lineno += 1
        end = text.find("\n", start)
        if end < 0:
            end = size
        cut = text.find("#", start, end)
        line = text[start : end if cut < 0 else cut].strip()
        if line:
            yield lineno, line
        start = end + 1
