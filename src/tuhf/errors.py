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


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped content) of each line of ``text``
    that is not blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
