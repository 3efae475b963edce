"""The diagonal's Gelfand space at finite depth and its point order.

A character of the tower diagonal is a coordinate sequence: at each
level it picks one of the k_n/k_{n-1} diagonal slots refining the slot
chosen one level up.  Finite-depth approximations carry an explicit
tail marker -- two points are comparable only when they declare the
same tail, since tail agreement beyond the recorded depth cannot be
computed from finite data.

Two executable order definitions live here.  ``gelfand_compare`` reads
the coordinates lexicographically (first differing level decides).
``gelfand_compare_via_projections`` converts each point to its chain of
diagonal-unit indices through the tower's partitions and asks for a
depth witnessing the matrix-unit relation: chain indices ordered at
some level with coordinates agreeing strictly below it.  The two
definitions agree on towers whose embeddings are interval patterns
(nest-form); on interleaving patterns they can genuinely differ, which
``relation_member``'s witness makes easy to inspect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError, FormatError
from .partitions import OutOfRange
from .towers import TowerSpec


class DepthMismatch(DomainError):
    """Points recorded at different depths cannot be compared."""


class GelfandOrder(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class GelfandPoint:
    """Finite-depth character: coordinates x_n in {0..k_n/k_{n-1}-1}
    plus a free-form tail marker naming the declared shared tail."""

    coords: tuple[int, ...]
    tail: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if not self.coords:
            raise OutOfRange("a point needs at least one coordinate")

    @property
    def depth(self) -> int:
        return len(self.coords)


def parse_point(text: str, tail: str = "") -> GelfandPoint:
    """Parse a comma-separated coordinate list like ``0,1,2``."""
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise FormatError(f"bad coordinate list {text!r}") from None
    return GelfandPoint(coords, tail)


def coordinate_sizes(tower: TowerSpec, depth: int) -> list[int]:
    """k_n / k_{n-1} for n = 1..depth (k_0 = 1): how many values x_n takes."""
    dims = [1] + [tower.level_dim(n) for n in range(1, depth + 1)]
    return [dims[n] // dims[n - 1] for n in range(1, depth + 1)]


def _check_ranges(tower: TowerSpec, x: GelfandPoint) -> None:
    for n, (c, size) in enumerate(zip(x.coords, coordinate_sizes(tower, x.depth)), 1):
        if not 0 <= c < size:
            raise OutOfRange(f"coordinate {n} is {c}, allowed range 0..{size - 1}")


def _prepare(tower: TowerSpec, x: GelfandPoint, y: GelfandPoint) -> bool:
    """Validate both points; return whether they are tail-comparable."""
    if x.depth != y.depth:
        raise DepthMismatch(f"depths differ: {x.depth} vs {y.depth}")
    _check_ranges(tower, x)
    _check_ranges(tower, y)
    return x.tail == y.tail


def gelfand_compare(tower: TowerSpec, x: GelfandPoint, y: GelfandPoint) -> GelfandOrder:
    """Coordinate reading of the order: lexicographic on x_1..x_N.

    Points with different tail markers are incomparable; on a shared
    tail the order is total, so the other three verdicts partition it.
    """
    if not _prepare(tower, x, y):
        return GelfandOrder.INCOMPARABLE
    if x.coords == y.coords:
        return GelfandOrder.EQUAL
    return GelfandOrder.LESS if x.coords < y.coords else GelfandOrder.GREATER


def projection_chain(tower: TowerSpec, x: GelfandPoint) -> tuple[int, ...]:
    """Diagonal-unit indices i_1..i_N selected by the coordinates.

    i_1 = x_1 + 1; descending a level, coordinate x_n picks the
    (x_n + 1)-th smallest element of the image block of i_{n-1} under
    the level-(n-1) embedding.
    """
    _check_ranges(tower, x)
    return _chain(tower, x)


def _chain(tower: TowerSpec, x: GelfandPoint) -> tuple[int, ...]:
    """``projection_chain`` on a point whose ranges are already checked."""
    i = x.coords[0] + 1
    chain = [i]
    for n in range(2, x.depth + 1):
        i = tower.embedding(n - 1).rank_image(i, x.coords[n - 1])
        chain.append(i)
    return tuple(chain)


def gelfand_compare_via_projections(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint
) -> GelfandOrder:
    """Projection-chain reading of the order.

    x <= y iff at some depth n the chains satisfy i_n <= j_n while the
    coordinates agree at every depth beyond n (the matrix unit at level
    n then carries the j-chain onto the i-chain rankwise).  Once chains
    separate they keep their relative order rankwise, so the deepest
    coordinate disagreement is the only depth that needs inspection.
    """
    if not _prepare(tower, x, y):
        return GelfandOrder.INCOMPARABLE
    if x.coords == y.coords:
        return GelfandOrder.EQUAL
    d = max(n for n in range(x.depth) if x.coords[n] != y.coords[n]) + 1
    ci = _chain(tower, x)
    cj = _chain(tower, y)
    return GelfandOrder.LESS if ci[d - 1] < cj[d - 1] else GelfandOrder.GREATER


@dataclass(frozen=True)
class RelationPair:
    """A membership witness for the topological binary relation: the
    depth and diagonal-unit indices with x's chain at or below y's."""

    x: GelfandPoint
    y: GelfandPoint
    level: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise OutOfRange(f"witness level must be >= 1, got {self.level}")
        if self.i > self.j:
            raise OutOfRange(f"witness needs i <= j, got ({self.i},{self.j})")


def relation_member(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint, depth: int
) -> RelationPair | None:
    """Minimal-depth witness that (x, y) lies in the relation.

    ``depth`` asserts where tail equivalence is trusted: coordinates
    beyond it must match outright.  Returns None (no witness) when the
    points are not tail-equivalent at that depth or when y is strictly
    below x.
    """
    if x.depth != y.depth:
        raise DepthMismatch(f"depths differ: {x.depth} vs {y.depth}")
    if not 1 <= depth <= x.depth:
        raise OutOfRange(f"depth {depth} outside 1..{x.depth}")
    _check_ranges(tower, x)
    _check_ranges(tower, y)
    if x.tail != y.tail or x.coords[depth:] != y.coords[depth:]:
        return None
    ci = _chain(tower, x)
    cj = _chain(tower, y)
    if x.coords == y.coords:
        return RelationPair(x, y, 1, ci[0], cj[0])
    d = max(n for n in range(x.depth) if x.coords[n] != y.coords[n]) + 1
    if ci[d - 1] > cj[d - 1]:
        return None
    return RelationPair(x, y, d, ci[d - 1], cj[d - 1])
