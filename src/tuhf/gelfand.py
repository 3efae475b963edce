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
shows.

Every reading makes one range check: depths first, then x's
coordinates, then y's, against the sizes k1 and each level's
multiplicity.  Both come from the tower's step memo,
``TowerSpec._steps``: one row (multiplicity, t, grid) for k1 and for
each preamble and cycle descriptor, built once per tower object and as
long as its text; coordinate n reads row n - 1, the cycle rows taken
modulo the cycle length.  A pair is then walked once, both chains
together, up to the deepest coordinate disagreement d only, holding k_n
and the two current chain indices, so a point costs memory linear in
its depth.  A ``std``/``nest``/``alt`` level steps an index by
``embeddings._alternating_step``, the one closed-form step formula
(i -> (r // t)*k*t + (i-1)*t + r % t + 1, then k -> k*s*t), and a
``part`` level reads the row's grid, i -> grid[i - 1, r]; neither makes
an embedding or checks a range, as the coordinates were checked first.
``gelfand_readings`` is the one reading: from the walk's result
(d, i_d, j_d) it returns all three lines of ``gelfand cmp``, and
``gelfand_compare_via_projections`` and ``relation_member`` return its
projection order and its witness.  The witness is built without
``RelationPair``'s checks, because the walk has given d >= 1 and
i_d <= j_d; ``RelationPair(...)`` called from outside keeps both.
``projection_chain`` steps one point the same way and keeps every
level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import _alternating_step
from .errors import DomainError, FormatError
from .partitions import Order, OutOfRange
from .towers import TowerSpec, _Step


class DepthMismatch(DomainError):
    """Points recorded at different depths cannot be compared."""


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


def _rows(tower: TowerSpec, depth: int) -> tuple[_Step, ...]:
    """The rows of ``tower._steps`` that coordinates 1..depth read: k1's,
    then one per level, the cycle rows repeated past the memo's end."""
    steps = tower._steps
    if depth > len(steps):
        cycle = steps[len(steps) - len(tower.cycle):]
        steps += cycle * ((depth - len(steps)) // len(cycle) + 1)
    return steps[:depth]


def coordinate_sizes(tower: TowerSpec, depth: int) -> list[int]:
    """k_n / k_{n-1} for n = 1..depth (k_0 = 1): how many values x_n takes."""
    return [row[0] for row in _rows(tower, depth)]


def _check(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint | None = None
) -> tuple[_Step, ...]:
    """Refuse different depths, then x's coordinates, then y's, against one
    row list, and return the rows for the walk."""
    depth = len(x.coords)
    if y is not None and len(y.coords) != depth:
        raise DepthMismatch(f"depths differ: {depth} vs {y.depth}")
    rows = _rows(tower, depth)
    for coords in (x.coords,) if y is None else (x.coords, y.coords):
        n = 0  # a counter beside the loop costs less than enumerate's tuples
        for c in coords:
            size = rows[n][0]
            if not 0 <= c < size:
                raise OutOfRange(f"coordinate {n + 1} is {c}, allowed range 0..{size - 1}")
            n += 1
    return rows


def _walk(
    rows: tuple[_Step, ...], xs: tuple[int, ...], ys: tuple[int, ...], depth: int
) -> tuple[int, int]:
    """The checked coordinates' chain indices (i, j) at level ``depth``, from
    one walk that holds only k_n and the two current indices.  The
    coordinates passed ``_check``, so r < mult and i, j stay in 1..k at
    every level: no step needs ``_rank_check``."""
    i, j = xs[0] + 1, ys[0] + 1
    k = rows[0][0]
    for n in range(1, depth):
        mult, t, grid = rows[n]
        if t is None:
            i, j = int(grid[i - 1, xs[n]]), int(grid[j - 1, ys[n]])  # type: ignore[index]
        else:
            i, j = _alternating_step(k, t, i, xs[n]), _alternating_step(k, t, j, ys[n])
        k *= mult
    return i, j


def _order(a: object, b: object) -> Order:
    if a == b:
        return Order.EQUAL
    return Order.LESS if a < b else Order.GREATER  # type: ignore[operator]


def gelfand_compare(tower: TowerSpec, x: GelfandPoint, y: GelfandPoint) -> Order:
    """Coordinate reading of the order: lexicographic on x_1..x_N.

    Points with different tail markers are incomparable; on a shared
    tail the order is total, so the other three verdicts partition it.
    """
    _check(tower, x, y)
    if x.tail != y.tail:
        return Order.INCOMPARABLE
    return _order(x.coords, y.coords)


def projection_chain(tower: TowerSpec, x: GelfandPoint) -> tuple[int, ...]:
    """Diagonal-unit indices i_1..i_N selected by the coordinates.

    i_1 = x_1 + 1; descending a level, coordinate x_n picks the
    (x_n + 1)-th smallest element of the image block of i_{n-1} under
    the level-(n-1) embedding.
    """
    rows = _check(tower, x)
    xs = x.coords
    i = xs[0] + 1
    chain = [i]
    k = rows[0][0]
    for n in range(1, len(xs)):
        mult, t, grid = rows[n]  # checked as in ``_walk``
        if t is None:
            i = int(grid[i - 1, xs[n]])  # type: ignore[index]
        else:
            i = _alternating_step(k, t, i, xs[n])
        chain.append(i)
        k *= mult
    return tuple(chain)


def gelfand_readings(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint
) -> tuple[Order, Order, RelationPair | None]:
    """Coordinate order, projection order and relation witness of one
    pair, from one check and one walk.

    The walk stops at the deepest coordinate disagreement d (1 for equal
    points).  Distinct points differ at d, in distinct ranks of one
    block or in disjoint blocks, so i_d = j_d iff x = y.
    """
    rows = _check(tower, x, y)
    if x.tail != y.tail:
        return Order.INCOMPARABLE, Order.INCOMPARABLE, None
    xs, ys = x.coords, y.coords
    d = len(xs)
    while d > 1 and xs[d - 1] == ys[d - 1]:
        d -= 1
    i, j = _walk(rows, xs, ys, d)
    member = None
    if i <= j:
        # d >= 1 and i <= j hold, so build the witness past the checks of
        # ``RelationPair.__post_init__``, as ``OrderedPartition._trusted`` does
        member = object.__new__(RelationPair)
        member.__dict__.update(x=x, y=y, level=d, i=i, j=j)
    return _order(xs, ys), _order(i, j), member


def gelfand_compare_via_projections(
    tower: TowerSpec, x: GelfandPoint, y: GelfandPoint
) -> Order:
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
