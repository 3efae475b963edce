"""The diagonal's Gelfand space at finite depth and its point order.

A character of the tower diagonal is a coordinate sequence: at each
level it picks one of the k_n/k_{n-1} diagonal slots refining the slot
chosen one level up.  Finite-depth approximations carry an explicit
tail marker -- two points are comparable only when they declare the
same tail, since tail agreement beyond the recorded depth cannot be
computed from finite data.

Two order definitions live here.  ``gelfand_compare`` reads the
coordinates lexicographically and never walks a chain.
``gelfand_compare_via_projections`` asks for a depth witnessing the
matrix-unit relation: diagonal-unit chain indices ordered at some
level, coordinates agreeing below it.  They agree on nest-form towers
and can differ on interleaving ones, as ``relation_member``'s witness
shows.  All share one range check, with sizes k1 and each descriptor's
multiplicity, and one walk that holds only k_n and each point's current
chain index, so a point costs memory linear in its depth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

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
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise OutOfRange("a point needs at least one coordinate")
        for c in self.coords:
            if type(c) is not int:
                raise OutOfRange(f"coordinate {c!r} is not an integer")

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
    return [tower.k1, *(tower.descriptor_at(n).multiplicity for n in range(1, depth))][:depth]


def _check(tower: TowerSpec, *points: GelfandPoint) -> None:
    """Refuse different depths, then each point's coordinates in turn, against one size list."""
    if len({p.depth for p in points}) > 1:
        raise DepthMismatch(f"depths differ: {points[0].depth} vs {points[1].depth}")
    sizes = coordinate_sizes(tower, points[0].depth)
    for p in points:
        for n, (c, size) in enumerate(zip(p.coords, sizes), 1):
            if not 0 <= c < size:
                raise OutOfRange(f"coordinate {n} is {c}, allowed range 0..{size - 1}")


def _walk(tower: TowerSpec, points: tuple[GelfandPoint, ...], depth: int) -> Iterator[list[int]]:
    """The checked points' chain indices at levels 1..depth, a level at a time,
    holding only k_n and each point's current index."""
    chain = [p.coords[0] + 1 for p in points]
    yield chain
    k = tower.k1
    for n in range(1, depth):
        e = tower.descriptor_at(n).embedding(k)
        chain = [e.rank_image(i, p.coords[n]) for i, p in zip(chain, points)]
        k = e.k_to
        yield chain


def _order(a: object, b: object) -> GelfandOrder:
    if a == b:
        return GelfandOrder.EQUAL
    return GelfandOrder.LESS if a < b else GelfandOrder.GREATER  # type: ignore[operator]


def gelfand_compare(tower: TowerSpec, x: GelfandPoint, y: GelfandPoint) -> GelfandOrder:
    """Coordinate reading of the order: lexicographic on x_1..x_N.

    Points with different tail markers are incomparable; on a shared
    tail the order is total, so the other three verdicts partition it.
    """
    _check(tower, x, y)
    if x.tail != y.tail:
        return GelfandOrder.INCOMPARABLE
    return _order(x.coords, y.coords)


def projection_chain(tower: TowerSpec, x: GelfandPoint) -> tuple[int, ...]:
    """Diagonal-unit indices i_1..i_N selected by the coordinates.

    i_1 = x_1 + 1; descending a level, coordinate x_n picks the
    (x_n + 1)-th smallest element of the image block of i_{n-1} under
    the level-(n-1) embedding.
    """
    _check(tower, x)
    return tuple(i for (i,) in _walk(tower, (x,), x.depth))


def gelfand_readings(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint
) -> tuple[GelfandOrder, GelfandOrder, RelationPair | None]:
    """Coordinate order, projection order and relation witness of one pair.

    One check, and one walk that stops at the deepest coordinate
    disagreement d (1 for equal points): distinct points differ there,
    in distinct ranks of one block or in disjoint blocks, so i_d = j_d
    iff x = y.
    """
    _check(tower, x, y)
    if x.tail != y.tail:
        return GelfandOrder.INCOMPARABLE, GelfandOrder.INCOMPARABLE, None
    d = max((n for n in range(x.depth) if x.coords[n] != y.coords[n]), default=0) + 1
    for i, j in _walk(tower, (x, y), d):
        pass
    member = RelationPair(x, y, d, i, j) if i <= j else None
    return _order(x.coords, y.coords), _order(i, j), member


def gelfand_compare_via_projections(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint
) -> GelfandOrder:
    """Projection-chain reading of the order: membership in the relation.

    x <= y iff at some depth n the chains satisfy i_n <= j_n while the
    coordinates agree at every depth beyond n (the matrix unit at level
    n then carries the j-chain onto the i-chain rankwise).  Once chains
    separate they keep their relative order rankwise, so the deepest
    coordinate disagreement is the only depth that needs inspection.
    """
    return gelfand_readings(tower, x, y)[1]


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


def relation_member(tower: TowerSpec, x: GelfandPoint, y: GelfandPoint) -> RelationPair | None:
    """Minimal-depth witness that (x, y) lies in the relation.

    The witness sits at the deepest coordinate disagreement (level 1 for
    equal points).  Returns None when the tails differ or when y is
    strictly below x in the projection order.
    """
    return gelfand_readings(tower, x, y)[2]
