"""Ordered partitions, ordered subpartitions, and runs.

The diagonal image of a unital triangularity-preserving embedding
T_n -> T_m is an ordered partition of {1..m}: block i collects the
diagonal slots hit by the i-th minimal projection, every block has
m/n elements, and the l-th smallest entries strictly increase from
block to block.  That rank-order condition *is* triangularity, and
scanning the ground set for the first element whose block index
differs induces a total order on same-shape partitions.

Runs -- maximal integer intervals, held as step-1 ``range`` objects --
are the finer decomposition used to recognize interval-form actions: a
block splits into runs, the runs of all blocks interleave into a row
grid, and the sizes of runs that an embedding stretches over
consecutive targets can only grow.  The three
supporting operations (prefix restriction, interleaving, run-size
monotonicity) live here so they can be exercised independently of any
matrix algebra.

An ordered partition is stored as one read-only (n, m/n) int64 array
whose row i is block i+1 in ascending order, so construction,
composition, comparison and the text form are whole-array numpy
operations.  Every build from input is validated in full, by vectorized
checks; when they fail, the element-by-element scan ``_scan``, kept as
the reference, names the offending block or element.  ``blocks`` gives
the same data as tuples of Python ints.

Three kernels build from partitions already valid, or by formula, and
wrap their grid with an unchecked private constructor instead:
``compose`` (block i of the composite collects the outer blocks over
inner block i, and rank order survives because both factors keep it),
``embeddings._tensor_blocks`` (a row-major tensor of rank-ordered
partitions whose inner factors share one shape), and the ``diag`` of
a closed form ``alternating(k, s, t)`` (the grid of I_s (x) A (x) I_t).
The seeded suites in ``checks`` that exercise these kernels check what
they build with ``_is_partition_grid``, which the kernels never call.
Both kinds of build store the grid in ``OrderedPartition.__post_init__``.

The text form is ``m=<m> n=<n> blocks=<body>``, the body being the
blocks' elements in decimal, ``,`` within a block and ``;`` between
blocks.  From m = ``_VECTOR_MIN`` on, ``format_partition`` writes the
body as one uint8 array, byte for byte the text of the joins it uses
below that size.  ``parse_partition`` checks the two header words once,
then reads a body as one array only when it is in the strict grammar
(m tokens of 1 to 18 ASCII digits, a ``;`` after every (m/n)-th) and
hands the grid to the fully validating constructor; every other body
is read token by token, as at every smaller size, so every error and
its message is the token path's.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Sized
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, FormatError


class InvalidPartition(DomainError):
    """Raw data does not describe an ordered (sub)partition."""


class UnequalBlockSizes(InvalidPartition):
    """Ordered-partition blocks must all have the same size."""


class RankOrderViolation(InvalidPartition):
    """The l-th smallest entries fail to increase across blocks i < j."""

    def __init__(self, block_i: int, block_j: int, rank: int) -> None:
        super().__init__(
            f"rank {rank} of block {block_i} is not below rank {rank} of block {block_j}"
        )


class ShapeMismatch(DomainError):
    """Operands do not have compatible dimensions."""


class OutOfRange(DomainError):
    """An index argument falls outside its documented range."""


class HypothesisViolated(DomainError):
    """A stated hypothesis of the run-size oracle fails."""


class Order(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def _scan(blocks: Sequence[Sequence[object]]) -> None:
    """Element-by-element check of the ordered-partition invariant.

    The reference that ``OrderedPartition`` falls back to whenever its
    vectorized checks fail: it raises the precise error for the first
    offending block or element.  Only Python ints are elements (``True``
    and numpy scalars are not).
    """
    if not blocks:
        raise InvalidPartition("a partition needs at least one block")
    for i, b in enumerate(blocks, 1):
        if not isinstance(b, Sized):
            raise InvalidPartition(f"block {i} is not a sequence: {b!r}")
    size = len(blocks[0])
    for b in blocks:
        if len(b) != size:
            raise UnequalBlockSizes(
                f"block sizes differ: {sorted({len(x) for x in blocks})}"
            )
    if size == 0:
        raise InvalidPartition("blocks must be nonempty")
    m = size * len(blocks)
    seen = [False] * (m + 1)
    for b in blocks:
        prev = 0
        for x in b:
            if type(x) is not int or not 1 <= x <= m:
                raise InvalidPartition(f"element {x!r} outside 1..{m}")
            if x <= prev:
                raise InvalidPartition("block elements must be sorted and distinct")
            if seen[x]:
                raise InvalidPartition(f"element {x} occurs twice")
            seen[x] = True
            prev = x
    for i in range(len(blocks) - 1):
        a, b = blocks[i], blocks[i + 1]
        for l in range(size):
            if a[l] >= b[l]:
                raise RankOrderViolation(i + 1, i + 2, l + 1)


def _int_array(values: Iterable[object], flat: Iterable[object]) -> Optional[np.ndarray]:
    """``values`` as an int64 array when every item of ``flat`` (its
    elements) is a Python int and the shape is rectangular, else None."""
    try:
        if set(map(type, flat)) != {int}:
            return None
        return np.array(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None


def _is_partition_grid(a: np.ndarray) -> bool:
    """The ordered-partition invariant on an (n, m/n) array: rows and
    columns strictly increase, so the corners are the extremes and must
    lie in 1..m, and every element of 1..m occurs once."""
    if a.ndim != 2 or a.size == 0:
        return False
    m = a.size
    return bool(
        (a[:, 1:] > a[:, :-1]).all()
        and (a[1:] > a[:-1]).all()
        and a[0, 0] >= 1
        and a[-1, -1] <= m
        and np.bincount(a.ravel(), minlength=m + 1)[1:].max() == 1
    )


class OrderedPartition:
    """Equal-size blocks of {1..m} with strictly increasing rank entries.

    The partition is one read-only (n, m/n) int64 ``array`` whose row i
    holds block i+1 in ascending order; ``blocks`` is the same data as a
    tuple of tuples of Python ints, built on first read.  Construction
    accepts an integer array or nested sequences of Python ints and
    validates the full invariant with vectorized checks (rows increase,
    columns increase -- the rank-order condition, transitive, so
    adjacent blocks suffice -- the corners lie in 1..m, and every
    element occurs once).  Input that fails them goes through the
    element-by-element ``_scan``, which raises the precise error.
    """

    # Every build, validated or trusted, goes through ``__post_init__``,
    # the one place that stores the grid, so a hook there sees every
    # partition built (perfbench's tracer counts builds, and times
    # validation, at it).
    def __init__(self, blocks: np.ndarray | Sequence[Sequence[int]]) -> None:
        self.__post_init__(blocks)

    def __post_init__(
        self, raw: np.ndarray | Sequence[Sequence[int]], checked: bool = True
    ) -> None:
        a = raw
        if checked:
            if isinstance(raw, np.ndarray) and raw.dtype.kind not in "iu":
                raw = raw.tolist()
            if isinstance(raw, np.ndarray):
                a = raw.astype(np.int64)
            else:
                a = _int_array(raw, itertools.chain.from_iterable(raw))
            if a is None or not _is_partition_grid(a):
                # The scan reads Python ints, so an integer array goes in as lists.
                _scan(raw.tolist() if isinstance(raw, np.ndarray) else raw)
                raise AssertionError("vectorized validation rejected a partition the scan accepts")
        a.flags.writeable = False
        self.__dict__["array"] = a

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "OrderedPartition":
        """Wrap an int64 grid that is an ordered partition by construction,
        unchecked: only the three kernels named in the module docstring
        call it, each on a grid built from valid partitions or by formula."""
        p = object.__new__(cls)
        p.__post_init__(a, checked=False)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"OrderedPartition is immutable; cannot set {name}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"OrderedPartition(blocks={self.blocks!r})"

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """``blocks[i]`` is the sorted tuple of ground elements in block i+1."""
        return tuple(map(tuple, self.array.tolist()))

    # -- construction --------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "OrderedPartition":
        return cls(tuple(tuple(sorted(b)) for b in blocks))

    @classmethod
    def from_assignment(
        cls, assign: Sequence[int], block_count: Optional[int] = None
    ) -> "OrderedPartition":
        """Build from a 1-based element -> block array, validating fully."""
        if not assign:
            raise InvalidPartition("empty assignment")
        n = block_count if block_count is not None else max(assign)
        if n < 1:
            raise InvalidPartition(f"bad block count {n}")
        values = _int_array(assign, assign)
        if values is None or values.min() < 1 or values.max() > n:
            bad = next(b for b in assign if type(b) is not int or not 1 <= b <= n)
            raise InvalidPartition(f"assignment value {bad!r} outside 1..{n}")
        # A stable sort lists each block's positions in ascending order.
        order = np.argsort(values, kind="stable") + 1
        counts = np.bincount(values, minlength=n + 1)[1:]
        if (counts != counts[0]).any():
            return cls.from_blocks(b.tolist() for b in np.split(order, np.cumsum(counts)[:-1]))
        return cls(order.reshape(n, -1))

    # -- shape ----------------------------------------------------------

    @property
    def block_count(self) -> int:
        return self.array.shape[0]

    @property
    def block_size(self) -> int:
        return self.array.shape[1]

    @property
    def ground_size(self) -> int:
        return self.array.size

    def block(self, i: int) -> tuple[int, ...]:
        """The sorted elements of block i (1-based)."""
        blocks = self.blocks
        if not 1 <= i <= len(blocks):
            raise OutOfRange(f"block index {i} outside 1..{len(blocks)}")
        return blocks[i - 1]

    def assignment(self) -> tuple[int, ...]:
        return tuple(_assignment(self).tolist())


def _assignment(p: OrderedPartition) -> np.ndarray:
    """Entry x-1 is the block (from 1) that holds ground element x."""
    out = np.empty(p.ground_size, dtype=np.int64)
    out[p.array.ravel() - 1] = np.repeat(np.arange(1, p.block_count + 1), p.block_size)
    return out


def compare(a: OrderedPartition, b: OrderedPartition) -> Order:
    """Total order on same-shape partitions.

    The first ground element assigned to different blocks decides:
    whichever partition puts it in the earlier block is the smaller.
    """
    if a.ground_size != b.ground_size or a.block_count != b.block_count:
        raise ShapeMismatch(
            f"cannot compare shapes {a.block_count}|{a.ground_size} "
            f"and {b.block_count}|{b.ground_size}"
        )
    if a == b:
        return Order.EQUAL
    x, y = _assignment(a), _assignment(b)
    first = int((x != y).argmax())
    return Order.LESS if x[first] < y[first] else Order.GREATER


@dataclass(frozen=True)
class OrderedSubpartition:
    """Disjoint sorted blocks with weakly decreasing sizes.

    Empty blocks may only trail (and are normalized away); for i < j the
    l-th smallest entries must increase for every rank l up to |block j|.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            prev = None
            for x in b:
                if prev is not None and x <= prev:
                    raise InvalidPartition("block elements must be sorted and distinct")
                if x in seen:
                    raise InvalidPartition(f"element {x} occurs twice")
                seen.add(x)
                prev = x
        for i in range(len(self.blocks) - 1):
            a, b = self.blocks[i], self.blocks[i + 1]
            if len(a) < len(b):
                raise InvalidPartition("block sizes must be weakly decreasing")
            for l in range(len(b)):
                if a[l] >= b[l]:
                    raise RankOrderViolation(i + 1, i + 2, l + 1)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "OrderedSubpartition":
        rows = [tuple(sorted(b)) for b in blocks]
        while rows and not rows[-1]:
            rows.pop()
        return cls(tuple(rows))

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def restrict_prefix(p: OrderedPartition, m_prime: int) -> OrderedSubpartition:
    """Intersect every block with {1..m_prime}.

    The result is an ordered subpartition: sizes weakly decrease and the
    surviving rank entries stay ordered, because each block's l-th entry
    only grows with the block index.
    """
    if not 1 <= m_prime <= p.ground_size:
        raise OutOfRange(f"prefix bound {m_prime} outside 1..{p.ground_size}")
    return OrderedSubpartition.from_blocks(
        row[row <= m_prime].tolist() for row in p.array
    )


def runs_of(s: Iterable[int]) -> tuple[range, ...]:
    """Decompose a set of integers into maximal runs (ranges), in increasing order."""
    out: list[range] = []
    for x in sorted(set(s)):
        if out and x == out[-1].stop:
            out[-1] = range(out[-1].start, x + 1)
        else:
            out.append(range(x, x + 1))
    return tuple(out)


def interleaved_runs(p: OrderedPartition) -> tuple[tuple[Optional[range], ...], ...]:
    """Arrange all blocks' runs on a row grid in global interval order.

    Cell (j, i) holds the run of block i placed on row j, or None.  Runs
    are placed greedily in increasing interval order, starting a new row
    only when a run's block column has already been passed; rows are as
    short as possible and the greedy shortest assignment is unique.  Two
    runs of one block are never adjacent in global order (the gap between
    them belongs to other blocks), so at most block_count - 2 consecutive
    cells can be empty and cell (1, 1) is always occupied.
    """
    k = p.block_count
    items = [(run, i) for i, b in enumerate(p.blocks, 1) for run in runs_of(b)]
    items.sort(key=lambda rc: rc[0].start)
    rows: list[list[Optional[range]]] = []
    next_col = k + 1
    for run, i in items:
        if i < next_col:
            rows.append([None] * k)
        rows[-1][i - 1] = run
        next_col = i + 1
    return tuple(tuple(row) for row in rows)


def psize_oracle(
    r_runs: Sequence[range],
    s_runs: Sequence[range],
    unit_embedding: OrderedPartition,
) -> bool:
    """Run-size monotonicity oracle.

    Hypotheses (each checked, naming the offender on failure): every run
    is a nonempty step-1 range; the n source runs R_1 < ... < R_n live in
    1..r where r is the embedding's block count; the n+1 target runs
    S_1 < ... < S_{n+1} live in 1..s; |S_1| = ... = |S_n|; the embedding
    maps the union of the R_i exactly onto the union of the S_j; and the
    image of R_i contains S_i.  Returns whether |R_1| <= ... <= |R_n| --
    which the hypotheses force, a fact the test suite checks exhaustively.
    """
    r = unit_embedding.block_count
    s = unit_embedding.ground_size
    n = len(r_runs)
    if n < 1:
        raise HypothesisViolated("need at least one source run")
    if len(s_runs) != n + 1:
        raise HypothesisViolated(f"need {n + 1} target runs, got {len(s_runs)}")
    for runs, bound, label in ((r_runs, r, "source"), (s_runs, s, "target")):
        prev_hi = 0
        for run in runs:
            if not run or run.step != 1:
                raise HypothesisViolated(f"{label} run {run!r} is not a nonempty step-1 range")
            if run.start <= prev_hi:
                raise HypothesisViolated(f"{label} runs must be disjoint and increasing")
            if not 1 <= run.start <= run[-1] <= bound:
                raise HypothesisViolated(f"{label} run {run.start}..{run[-1]} outside 1..{bound}")
            prev_hi = run[-1]
    if any(len(run) != len(s_runs[0]) for run in s_runs[:n]):
        raise HypothesisViolated("the first n target runs must have equal sizes")
    images = [set().union(*unit_embedding.blocks[run.start - 1 : run.stop - 1]) for run in r_runs]
    if set().union(*images) != set().union(*s_runs):
        raise HypothesisViolated("embedding image of the source union must equal the target union")
    for i, (run, img) in enumerate(zip(s_runs, images), 1):
        if not img.issuperset(run):
            raise HypothesisViolated(f"target run {i} must lie in the image of source run {i}")
    sizes = [len(run) for run in r_runs]
    return all(sizes[i] <= sizes[i + 1] for i in range(n - 1))


def compose(outer: OrderedPartition, inner: OrderedPartition) -> OrderedPartition:
    """Composite partition: block i is the union of outer blocks over inner block i."""
    if outer.block_count != inner.ground_size:
        raise ShapeMismatch(
            f"outer has {outer.block_count} blocks but inner ground is {inner.ground_size}"
        )
    grid = outer.array[inner.array - 1].reshape(inner.block_count, -1)
    grid.sort(axis=1)
    return OrderedPartition._trusted(grid)


def ordered_partitions(m: int, n: int) -> Iterator[OrderedPartition]:
    """Enumerate every ordered partition of {1..m} into n blocks.

    Walks assignment words under the ballot condition (each prefix holds
    at least as many entries of block i as of block i+1), which is
    exactly the rank-order invariant.
    """
    if m < 1 or n < 1 or m % n:
        raise InvalidPartition(f"no ordered partitions of {m} into {n} equal blocks")
    size = m // n
    counts = [0] * n
    word: list[int] = []

    def walk(pos: int) -> Iterator[OrderedPartition]:
        if pos == m:
            yield OrderedPartition.from_assignment(list(word), n)
            return
        for b in range(n):
            if counts[b] < size and (b == 0 or counts[b] < counts[b - 1]):
                counts[b] += 1
                word.append(b + 1)
                yield from walk(pos + 1)
                word.pop()
                counts[b] -= 1

    return walk(0)


# -- text form --------------------------------------------------------

# Ground size from which the text body is written and read as one uint8
# array; below it the joins and the token path are faster.
_VECTOR_MIN = 512
_COMMA, _SEMICOLON, _ZERO = ord(","), ord(";"), ord("0")
_MAX_DIGITS = 18  # every token of at most 18 digits fits in int64


def _join_body(p: OrderedPartition) -> str:
    """The body ``1,2,5;3,4,6``, one join per block: the reference."""
    return ";".join(",".join(map(str, b)) for b in p.array.tolist())


def _vector_body(p: OrderedPartition) -> str:
    """The same body as ``_join_body``, written into one uint8 buffer.

    Token i ends just before its separator at ``ends[i] - 1``; digit
    place d of it goes to ``ends[i] - 2 - d``.  Every token is written
    at every place, highest first: a place a token lacks lands on an
    earlier token's byte at a lower place (or on the front padding), and
    that token's own digit is written later.  Separators go in last.
    Elements lie in 1..m, so they are divided in the narrowest unsigned
    type that holds m.
    """
    places = len(str(p.ground_size))
    q = p.array.ravel().astype(np.min_scalar_type(p.ground_size))
    digits = np.ones(q.size, dtype=np.int64)
    for d in range(1, places):
        digits += q >= 10**d
    ends = np.cumsum(digits + 1) + places
    place_digits = np.empty((places, q.size), dtype=np.uint8)
    for d in range(places):
        higher = q // 10
        place_digits[d] = q - 10 * higher
        q = higher
    place_digits += _ZERO
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    for d in range(places - 1, -1, -1):
        buf[ends - 2 - d] = place_digits[d]
    buf[ends - 1] = _COMMA
    buf[ends[p.block_size - 1 :: p.block_size] - 1] = _SEMICOLON
    return buf[places:-1].tobytes().decode("ascii")


def format_partition(p: OrderedPartition) -> str:
    body = _vector_body(p) if p.ground_size >= _VECTOR_MIN else _join_body(p)
    return f"m={p.ground_size} n={p.block_count} blocks={body}"


def _token_grid(body: str) -> np.ndarray | list[list[int]]:
    """The blocks of a body, read token by token: the reference, and the
    path of every body outside the strict grammar.  Raises ValueError."""
    tokens = [group.split(",") for group in body.split(";")]
    try:
        return np.sort(np.array(tokens, dtype=np.int64), axis=1)
    except (ValueError, OverflowError):
        # Ragged, huge or malformed: convert token by token, so the
        # first bad token names the error.
        return [sorted(int(x) for x in group) for group in tokens]


def _strict_grid(body: str, m: int, n: int) -> Optional[np.ndarray]:
    """The (n, m/n) grid of a body in the strict grammar, else None.

    The grammar: m nonempty tokens of at most 18 ASCII digits, joined by
    ``,`` except for the n-1 ``;`` after every (m/n)-th token.  On such
    a body ``np.fromstring`` reads exactly the tokens, and the token path
    would build the same grid; every other body goes to the token path.
    """
    if not body.isascii():
        return None
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    is_sep = (buf == _COMMA) | (buf == _SEMICOLON)
    # Bytes below "0" wrap around to large values; ";" lies above "9".
    if not ((buf - np.uint8(_ZERO) <= 9) | is_sep).all():
        return None
    seps = np.flatnonzero(is_sep)
    if seps.size != m - 1:
        return None
    # Token lengths: the gaps between separators, less one.
    gaps = np.diff(seps, prepend=-1, append=buf.size)
    if gaps.min() < 2 or gaps.max() > _MAX_DIGITS + 1:
        return None
    size = m // n
    if not np.array_equal(
        np.flatnonzero(buf[seps] == _SEMICOLON), np.arange(size - 1, m - 1, size)
    ):
        return None
    values = np.fromstring(body.replace(";", ","), dtype=np.int64, sep=",")
    return np.sort(values.reshape(n, size), axis=1)


_KEYS = ("m=", "n=", "blocks=")


def parse_partition(text: str) -> OrderedPartition:
    """Parse ``m=<int> n=<int> blocks=<semicolon-separated comma lists>``.

    The two header words are split off and checked once.  From ``m`` of
    ``_VECTOR_MIN`` on, a body in the strict grammar is then read as one
    array; any other body is read token by token, so errors and their
    messages do not depend on the path.  The strict grammar admits no
    whitespace, so a body it reads is never scanned for it; a header
    error waits for the field count, the token path's first check.
    """
    fields = text.split(None, 2)
    if len(fields) == 3:
        fields[2] = fields[2].rstrip()
    error = None
    for field, key in zip(fields, _KEYS):
        if not field.startswith(key):
            error = f"expected field {key}..., got {field!r}"
            break
    if error is None and len(fields) == 3:
        try:
            m, n = int(fields[0][2:]), int(fields[1][2:])
        except ValueError as exc:
            error = f"bad partition text: {exc}"
        else:
            if m >= _VECTOR_MIN and n >= 1 and m % n == 0:
                grid = _strict_grid(fields[2][len("blocks="):], m, n)
                if grid is not None:
                    return OrderedPartition(grid)
    count = len(fields) if len(fields) < 3 else 2 + len(fields[2].split())
    if count != 3:
        raise FormatError(f"expected three fields in partition text, got {count}")
    if error is not None:
        raise FormatError(error)
    try:
        grid = _token_grid(fields[2][len("blocks="):])
    except ValueError as exc:
        raise FormatError(f"bad partition text: {exc}") from None
    p = OrderedPartition(grid)
    if p.ground_size != m or p.block_count != n:
        raise FormatError(
            f"declared shape m={m} n={n} does not match blocks "
            f"(m={p.ground_size} n={p.block_count})"
        )
    return p
