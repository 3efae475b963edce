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

An ordered partition is stored as one read-only (n, m/n) array of
``_GRID``, int32, whose row i is block i+1 in ascending order, so
construction, composition, comparison and the text form are whole-array
numpy operations.  Every element lies in 1..m, and no grid is built past
``embeddings.MAX_GROUND`` = 2**22 elements (the text reader's
``_closed_form`` is bounded by its body's length instead), so 32 bits
hold every element and every product of elements the kernels form, and
each kernel moves half the bytes of int64.  Every build from input is
validated in full, by vectorized checks; when they fail, the
element-by-element scan ``_scan``, kept as the reference, names the
offending block or element.  ``blocks`` gives the same data as tuples
of Python ints.

Four sites build from partitions already valid, or by formula, and
wrap their grid with an unchecked private constructor instead:
``compose`` (block i of the composite collects the outer blocks over
inner block i, and rank order survives because both factors keep it),
``embeddings._tensor_blocks`` (a row-major tensor of rank-ordered
partitions whose inner factors share one shape), the ``diag`` of a
closed form ``alternating(k, s, t)``, and ``_closed_form``, the text
reader's branch for a closed form (both wrap ``_alternating_grid``, the
grid of I_s (x) A (x) I_t, an ordered partition for every k, s, t >= 1).
The seeded suites in ``checks`` that exercise these kernels check what
they build with ``_is_partition_grid``, which the kernels never call.
Both kinds of build store the grid in ``OrderedPartition.__post_init__``.

The text form is ``m=<m> n=<n> blocks=<body>``, the body being the
blocks' elements in decimal, ``,`` within a block and ``;`` between
blocks.  From m = ``_VECTOR_MIN`` on, ``format_partition`` writes the
body as one fixed-width uint8 matrix, a row per token (its digits
right-aligned, then its separator), and compresses it with a keep mask
of each token's own digits; the result is byte for byte the text of the
joins it uses below that size; ``_text_parts`` gives header and body
apart, for writers of a larger text.  ``parse_partition`` checks the two
header words once.  From m = ``_VECTOR_MIN`` on, a body that is byte for
byte the writer's text of a closed form alternating(n, s, t) is
returned as the formula grid, unparsed (``_closed_form``, which compares
the body where it stands in the text); every other
body, at every size, is read token by token (``_token_grid``) and its
grid goes to the fully validating constructor, so each error and its
message is the same whatever the text's size.  ``_token_widths`` is
the one count of digits: the writer's keep mask and ``_closed_form``'s
length check of block 1 both read it, so the layout is stated once.
``_read_partition`` is the reader itself: it reads the text from an
offset, in place, and also returns the (s, t) of the closed form it
took by its bytes, which ``automorphisms.load_auto_data`` keeps.

numpy is loaded on the first array operation, not on import: ``np`` is
a lazy module, and the other modules that use numpy import it from
here.  Commands that build no partition or matrix never load it.
"""

from __future__ import annotations

import enum
import importlib.util
import itertools
import re
import sys
from collections.abc import Sized
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, FormatError


def _lazy(name: str):
    """The module ``name``, executed on its first attribute access.  A
    module already imported is returned as it is."""
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")

# The dtype of every ``OrderedPartition.array``, named by string so that
# importing this module does not load numpy.
_GRID = "int32"


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
    """The one verdict of every comparison: of same-shape partitions, of
    same-shape embeddings (``embeddings.compare_embeddings``) and of
    Gelfand points (``gelfand``).  Only Gelfand points with different
    tails are INCOMPARABLE; the other orders are total."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


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
    _rank_scan(blocks, size * len(blocks))


def _rank_scan(blocks: Sequence[Sequence[object]], m: Optional[int] = None) -> None:
    """Each element lies in 1..m (if m is given), is sorted and is new;
    block sizes weakly decrease and rank order holds."""
    seen: set[object] = set()
    for b in blocks:
        prev = None
        for x in b:
            if m is not None and (type(x) is not int or not 1 <= x <= m):
                raise InvalidPartition(f"element {x!r} outside 1..{m}")
            if prev is not None and x <= prev:
                raise InvalidPartition("block elements must be sorted and distinct")
            if x in seen:
                raise InvalidPartition(f"element {x} occurs twice")
            seen.add(x)
            prev = x
    for i in range(len(blocks) - 1):
        a, b = blocks[i], blocks[i + 1]
        if len(a) < len(b):
            raise InvalidPartition("block sizes must be weakly decreasing")
        for l in range(len(b)):
            if a[l] >= b[l]:
                raise RankOrderViolation(i + 1, i + 2, l + 1)


def _int_array(values: Iterable[object], flat: Iterable[object]) -> Optional[np.ndarray]:
    """``values`` as a ``_GRID`` array when every item of ``flat`` (its
    elements) is a Python int that fits and the shape is rectangular, else
    None.  A value past int32 raises OverflowError here, so it reaches the
    scan, which names it as outside 1..m."""
    try:
        if set(map(type, flat)) != {int}:
            return None
        return np.array(values, dtype=_GRID)
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

    The partition is one read-only (n, m/n) ``_GRID`` ``array`` whose row i
    holds block i+1 in ascending order; ``blocks`` is the same data as a
    tuple of tuples of Python ints, built on first read.  Construction
    accepts an integer array or nested sequences of Python ints and
    validates the full invariant with vectorized checks (rows increase,
    columns increase -- the rank-order condition, transitive, so
    adjacent blocks suffice -- the corners lie in 1..m, and every
    element occurs once).  Input that fails them goes through the
    element-by-element ``_scan``, which raises the precise error.  An
    integer array is validated in int64 and cast to ``_GRID`` after, once
    every element is known to lie in 1..m: cast first, [[1, 2**32 + 2]]
    would wrap to the valid [[1, 2]].
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
                a = raw.astype(np.int64, copy=False)
            else:
                a = _int_array(raw, itertools.chain.from_iterable(raw))
            if a is None or not _is_partition_grid(a):
                # The scan reads Python ints, so an integer array goes in as lists.
                _scan(raw.tolist() if isinstance(raw, np.ndarray) else raw)
                raise AssertionError("vectorized validation rejected a partition the scan accepts")
            if isinstance(raw, np.ndarray):
                a = a.astype(_GRID)  # narrowed only once it is known valid
        a.flags.writeable = False
        self.__dict__["array"] = a

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "OrderedPartition":
        """Wrap a ``_GRID`` grid that is an ordered partition by construction,
        unchecked: only the four sites named in the module docstring
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
            bad = next((b for b in assign if type(b) is not int or not 1 <= b <= n), None)
            if bad is None:  # every value names a block, one of them past int32
                raise InvalidPartition(f"bad block count {n}")
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
    # Slot 0 is padding, so the grid indexes ``out`` once cast to intp: an
    # index array of another dtype takes numpy's slower indexing path.
    out = np.empty(p.ground_size + 1, dtype=np.int64)
    out[p.array.ravel().astype(np.intp)] = np.repeat(np.arange(1, p.block_count + 1), p.block_size)
    return out[1:]


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
        _rank_scan(self.blocks)

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


def _alternating_grid(k: int, s: int, t: int) -> np.ndarray:
    """The blocks of I_s (x) A_k (x) I_t as a (k, s*t) array: the ground
    1..kst laid out as s copies of k slots of t, block i being slot i of
    every copy."""
    cube = np.arange(1, k * s * t + 1, dtype=_GRID).reshape(s, k, t)
    return cube.transpose(1, 0, 2).reshape(k, s * t)


def compose(outer: OrderedPartition, inner: OrderedPartition) -> OrderedPartition:
    """Composite partition: block i is the union of outer blocks over inner block i."""
    if outer.block_count != inner.ground_size:
        raise ShapeMismatch(
            f"outer has {outer.block_count} blocks but inner ground is {inner.ground_size}"
        )
    grid = outer.array.take(inner.array - 1, axis=0).reshape(inner.block_count, -1)
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

# Ground size from which the text body is written as one uint8 matrix,
# below which the joins are faster, and from which a closed form's text
# is recognized by its bytes.
_VECTOR_MIN = 512
_COMMA, _SEMICOLON, _ZERO = ord(","), ord(";"), ord("0")


def _join_body(p: OrderedPartition) -> str:
    """The body ``1,2,5;3,4,6``, one join per block: the reference."""
    return ";".join(",".join(map(str, b)) for b in p.array.tolist())


def _token_widths(q: np.ndarray, m: int) -> np.ndarray:
    """The digit count of each element of ``q`` in 1..m, as uint8: the one
    place that counts digits, so the writer's keep mask and
    ``_closed_form``'s length check of block 1 state one layout."""
    widths = np.ones(q.size, dtype=np.uint8)
    for d in range(1, len(str(m))):
        widths += (q >= 10**d).view(np.uint8)
    return widths


def _body_length(m: int) -> int:
    """The length of the writer's body of any ordered partition of 1..m:
    each of 1..m once, just its digits, and m - 1 separators."""
    length, low, digits = m - 1, 1, 1
    while low <= m:
        length += digits * (min(m, 10 * low - 1) - low + 1)
        low, digits = 10 * low, digits + 1
    return length


def _vector_body(p: OrderedPartition) -> str:
    """The same body as ``_join_body``, written as one fixed-width matrix.

    Row i of the (m, places + 1) uint8 matrix is token i right-aligned
    in ``places`` digit columns, m's digit count, then its separator:
    ``,``, or ``;`` on the last row of every block.  A same-shape keep
    mask marks every separator and the token's own digits: the digit
    column of place j is kept where q >= 10**j, that is, row i of the
    mask is row w of a small table, w being token i's ``_token_widths``
    count.  One boolean compress reads the body out, and the final
    separator is dropped.  Elements lie in 1..m, so they are divided in
    the narrowest unsigned type that holds m.
    """
    m = p.ground_size
    places = len(str(m))
    # one copy, in C order, also of a strided grid (alternating(k, s, 1))
    q = p.array.astype(np.min_scalar_type(m), order="C").ravel()
    # Row w keeps the last w digit columns and the separator column.
    keep = np.greater.outer(np.arange(places + 1), np.arange(places - 1, -2, -1))
    keep = keep.take(_token_widths(q, m), axis=0)
    text = np.empty(keep.shape, dtype=np.uint8)
    for column in range(places - 1, 0, -1):
        higher = q // 10
        np.subtract(q, 10 * higher, out=text[:, column], casting="unsafe")
        q = higher
    text[:, 0] = q  # below 10 after places - 1 divisions: the top digit
    text += _ZERO
    text[:, places] = _COMMA
    text[p.block_size - 1 :: p.block_size, places] = _SEMICOLON
    return str(text[keep][:-1], "ascii")


def _text_parts(p: OrderedPartition) -> tuple[str, str]:
    """The header ``m=<m> n=<n> blocks=`` and the body of p's text, for
    writers that join them into a larger text."""
    body = _vector_body(p) if p.ground_size >= _VECTOR_MIN else _join_body(p)
    return f"m={p.ground_size} n={p.block_count} blocks=", body


def format_partition(p: OrderedPartition) -> str:
    return "".join(_text_parts(p))


def _token_grid(body: str) -> np.ndarray | list[list[int]]:
    """The blocks of a body, read token by token: the path of every body
    that is not a closed form's text.  Raises ValueError."""
    tokens = [group.split(",") for group in body.split(";")]
    try:
        return np.sort(np.array(tokens, dtype=np.int64), axis=1)
    except (ValueError, OverflowError):
        # Ragged, huge or malformed: convert token by token, so the
        # first bad token names the error.
        return [sorted(int(x) for x in group) for group in tokens]


def _closed_form(
    text: str, begin: int, end: int, m: int, n: int
) -> Optional[tuple[OrderedPartition, tuple[int, int]]]:
    """alternating(n, s, t) and its (s, t) when the body ``text[begin:end]``
    is byte for byte the writer's text of it, else None.

    The body is read in place: only its first token of block 2 and the
    last of block 1 are sliced out.  It must first be as long as the
    writer's text of 1..m, so m, which sizes every array built here, is
    bounded by the body.  The form is forced: block 2's first token is
    t + 1 (t = m when n = 1) and s = m/(n*t).  Before the grid is built,
    block 1 must end in that form's last element of block 1,
    m - (n-1)*t, and be as long as its text.  The writer is
    deterministic, and the token reader takes its text back to the grid
    it wrote, so equal bytes are exactly the partition that reader would
    return, and any other body is left to it.
    """
    if end - begin != _body_length(m):
        return None
    stop = text.find(";", begin, end) if n > 1 else end  # block 1 is text[begin:stop]
    if stop < 0:
        return None
    if n == 1:
        t = m
    else:
        token = text[stop + 1 : stop + 2 + len(str(m))].replace(";", ",").split(",", 1)[0]
        if not (token.isascii() and token.isdigit()):
            return None
        t = int(token) - 1
    if t < 1 or (m // n) % t:
        return None
    s = m // (n * t)
    if text[max(text.rfind(",", begin, stop) + 1, begin) : stop] != str(m - (n - 1) * t):
        return None
    block_1 = np.arange(0, m, n * t, dtype=np.int64)[:, None] + np.arange(1, t + 1)
    # block 1's text: each token's digits and a separator between tokens
    if _token_widths(block_1.ravel(), m).sum() + block_1.size - 1 != stop - begin:
        return None
    p = OrderedPartition._trusted(_alternating_grid(n, s, t))
    return (p, (s, t)) if text.startswith(_vector_body(p), begin) else None


# The first two fields of partition text and the whitespace around them,
# whitespace being what ``str.split`` splits at.
_HEADER = re.compile(r"\s*(\S+)\s+(\S+)\s+")


def _read_partition(
    text: str, start: int = 0
) -> tuple[OrderedPartition, Optional[tuple[int, int]]]:
    """The partition ``text[start:]`` holds, read as ``parse_partition``
    reads it, and the (s, t) of the closed form alternating(n, s, t) it
    was taken as by its bytes, or None when it was read token by token.

    The text is read in place up to the byte comparison: the header
    fields are matched at ``start`` and ``_closed_form`` compares the
    body where it stands.  Only a body that is not a closed form's text
    is sliced out, for the token reader.
    """
    end = len(text.rstrip())
    head = _HEADER.match(text, start, end)
    if head is None:  # fewer than three fields
        count = len(text[start:end].split())
        raise FormatError(f"expected three fields in partition text, got {count}")
    m_field, n_field = head.groups()
    body = head.end()  # where the third field starts
    error = None
    for field, key in ((m_field, "m="), (n_field, "n=")):
        if not field.startswith(key):
            error = f"expected field {key}..., got {field!r}"
            break
    else:
        if not text.startswith("blocks=", body):
            error = f"expected field blocks=..., got {text[body:end]!r}"
    if error is None:
        try:
            m, n = int(m_field[2:]), int(n_field[2:])
        except ValueError as exc:
            error = f"bad partition text: {exc}"
        else:
            if m >= _VECTOR_MIN and n >= 1 and m % n == 0:
                found = _closed_form(text, body + len("blocks="), end, m, n)
                if found is not None:
                    return found
    rest = text[body:end]
    count = 2 + len(rest.split())
    if count != 3:
        raise FormatError(f"expected three fields in partition text, got {count}")
    if error is not None:
        raise FormatError(error)
    try:
        grid = _token_grid(rest[len("blocks="):])
    except ValueError as exc:
        raise FormatError(f"bad partition text: {exc}") from None
    p = OrderedPartition(grid)
    if p.ground_size != m or p.block_count != n:
        raise FormatError(
            f"declared shape m={m} n={n} does not match blocks "
            f"(m={p.ground_size} n={p.block_count})"
        )
    return p, None


def parse_partition(text: str) -> OrderedPartition:
    """Parse ``m=<int> n=<int> blocks=<semicolon-separated comma lists>``.

    The two header words are split off and checked once.  From ``m`` of
    ``_VECTOR_MIN`` on, a body that is the writer's text of a closed form
    alternating(n, s, t) gives that form's grid, neither read nor
    validated (``_closed_form``: equal bytes are the partition the token
    reader returns); every other body is read token by token.  The
    writer's text holds no whitespace, so a body taken by its bytes is
    never scanned for it; a header error waits for the field count, the
    token reader's first check.
    """
    return _read_partition(text)[0]
