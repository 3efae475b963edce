"""Regular embeddings between upper-triangular matrix algebras.

A unital embedding T_k -> T_k' that carries partial permutation
matrices to partial permutation matrices is determined, up to the
canonical choice made here, by where the k diagonal matrix units land:
an ordered partition of {1..k'} into k blocks.  Off-diagonal units are
sent by *rank pairing* -- the m-th smallest element of block i is paired
with the m-th smallest of block j -- which is the unique choice that is
order-compatible in every block and keeps images upper triangular.

An embedding reads its dimensions off its data, and there are two ways
to make one: ``RegularEmbedding(diag)`` from an explicit partition
(k is its block count, k' its ground size), and ``alternating(k, s, t)``
in closed form (k' = k*s*t).

The three classical patterns all arise from tensoring with identity
factors: ``standard`` is I_mult (x) A, ``nest`` is A (x) I_mult, and
``alternating`` is I_s (x) A (x) I_t.  ``alternating`` is closed-form:
it records (k, s, t), composes by multiplying multiplicities, reads the
r-th element of a block and compares with another closed form by
arithmetic, and builds its partition only when ``diag`` is read.  The
rank arithmetic is the one formula ``_alternating_step(k, t, i, r)``.
``_alternating_rank(k, s, t, i, r)`` adds its range checks: ``rank_image``
of a closed form calls it, and so does ``towers.Descriptor.rank_image``
on a descriptor's (s, t), without making an embedding; the Gelfand walk
steps range-checked coordinates by the formula alone.  ``standard`` and
``nest`` build their block formulas explicitly and serve as the
reference the closed form is checked against, so the tensor identities
relating the three stay honest, independently checkable facts rather
than definitions.

``_tensor_blocks`` is the one row-major tensor formula, one numpy
broadcast over every block: ``tensor_embed`` and the blockwise
automorphisms of tensor towers both build through it.
Partitions whose size comes from arithmetic rather than from an input
(a closed form's ``diag``, a tensor product) are refused with a
``DomainError`` above ``MAX_GROUND`` elements instead of exhausting
memory.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from . import partitions
from .errors import DomainError
from .partitions import Order, OrderedPartition, OutOfRange, ShapeMismatch, np

MAX_GROUND = 1 << 22


def _require_within_budget(m: int) -> None:
    if m > MAX_GROUND:
        raise DomainError(
            f"refusing to build a partition of {m} elements (limit {MAX_GROUND})"
        )


def _alternating_grid(k: int, s: int, t: int) -> np.ndarray:
    """``partitions._alternating_grid`` within the budget."""
    _require_within_budget(k * s * t)
    return partitions._alternating_grid(k, s, t)


def _rank_check(k: int, mult: int, i: int, r: int) -> None:
    if not 1 <= i <= k:
        raise OutOfRange(f"block index {i} outside 1..{k}")
    if not 0 <= r < mult:
        raise OutOfRange(f"rank {r} outside 0..{mult - 1}")


def _alternating_step(k: int, t: int, i: int, r: int) -> int:
    """The r-th smallest element (r from 0) of block i (from 1) of
    alternating(k, s, t), by arithmetic: outer copy r // t, inflation
    place r % t of slot i.  It checks no range: callers hold
    1 <= i <= k and 0 <= r < s*t."""
    return (r // t) * k * t + (i - 1) * t + r % t + 1


def _alternating_rank(k: int, s: int, t: int, i: int, r: int) -> int:
    """``_alternating_step`` after the range check."""
    _rank_check(k, s * t, i, r)
    return _alternating_step(k, t, i, r)


class IndexOutOfRange(DomainError):
    """A matrix-unit index is outside 1..k_from."""


class LowerTriangularRequest(DomainError):
    """Asked for the image of a strictly lower-triangular unit."""


class RegularEmbedding:
    """A rank-paired embedding T_{k_from} -> T_{k_to}, made from its data.

    ``RegularEmbedding(diag)`` takes the ordered partition whose i-th
    block is the diagonal support of the image of the i-th diagonal
    unit, so k_from is its block count and k_to its ground size.  The
    partition's own rank-order invariant is exactly the condition that
    rank pairing maps upper-triangular units to upper-triangular sums.

    ``alternating(k, s, t)`` makes the closed form I_s (x) A (x) I_t,
    with k_to = k*s*t: it carries ``st = (s, t)`` instead of a
    partition, and ``diag`` is a cached property, built unchecked on
    first read: the grid of I_s (x) A (x) I_t is an ordered partition
    for every k, s, t >= 1.  Instances are immutable; equality is
    equality of the diagonal partitions, read off ``compare_embeddings``.
    """

    def __init__(self, diag: OrderedPartition) -> None:
        self.__dict__.update(k_from=diag.block_count, k_to=diag.ground_size, st=None, diag=diag)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RegularEmbedding is immutable; cannot set {name}")

    @cached_property
    def diag(self) -> OrderedPartition:
        s, t = self.st  # type: ignore[misc]
        return OrderedPartition._trusted(_alternating_grid(self.k_from, s, t))

    @property
    def multiplicity(self) -> int:
        """k_to / k_from, read off the data: s*t, or the block size."""
        if self.st is None:
            return self.diag.block_size
        s, t = self.st
        return s * t

    def rank_image(self, i: int, r: int) -> int:
        """The r-th smallest element (r from 0) of block i (from 1)."""
        if self.st is not None:
            return _alternating_rank(self.k_from, *self.st, i, r)
        _rank_check(self.k_from, self.diag.block_size, i, r)
        return int(self.diag.array[i - 1, r])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularEmbedding):
            return NotImplemented
        if (self.k_from, self.k_to) != (other.k_from, other.k_to):
            return False
        return compare_embeddings(self, other) is Order.EQUAL

    def __hash__(self) -> int:
        return hash((self.k_from, self.k_to))

    def __repr__(self) -> str:
        if self.st is not None:
            return "alternating({}, {}, {})".format(self.k_from, *self.st)
        return f"RegularEmbedding({self.diag!r})"


def standard(k: int, mult: int) -> RegularEmbedding:
    """The I_mult (x) A pattern: block i = {i, i+k, ..., i+(mult-1)k}."""
    if k < 1 or mult < 1:
        raise ShapeMismatch(f"need k, mult >= 1, got k={k} mult={mult}")
    blocks = np.arange(1, k + 1)[:, None] + k * np.arange(mult)
    return RegularEmbedding(OrderedPartition(blocks))


def nest(k: int, mult: int) -> RegularEmbedding:
    """The A (x) I_mult refinement pattern: block i = {(i-1)mult+1 .. i*mult}."""
    if k < 1 or mult < 1:
        raise ShapeMismatch(f"need k, mult >= 1, got k={k} mult={mult}")
    blocks = mult * np.arange(k)[:, None] + np.arange(1, mult + 1)
    return RegularEmbedding(OrderedPartition(blocks))


def alternating(k: int, s_mult: int, t_mult: int) -> RegularEmbedding:
    """The I_s (x) A (x) I_t pattern, in closed form.

    Block i holds {a*k*t + (i-1)*t + b : 0 <= a < s, 1 <= b <= t}: the
    t-fold inflation of slot i repeated in each of the s outer copies.
    Degenerate factors recover the other constructors: alternating(k,s,1)
    equals standard(k,s) and alternating(k,1,t) equals nest(k,t).
    """
    if k < 1 or s_mult < 1 or t_mult < 1:
        raise ShapeMismatch(
            f"need k, s_mult, t_mult >= 1, got k={k} s={s_mult} t={t_mult}"
        )
    e = object.__new__(RegularEmbedding)  # the one path to a closed form
    e.__dict__.update(k_from=k, k_to=k * s_mult * t_mult, st=(s_mult, t_mult))
    return e


def identity_embedding(k: int) -> RegularEmbedding:
    return alternating(k, 1, 1)


def image_of_unit(e: RegularEmbedding, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Rank-paired image of the matrix unit (i, j), i <= j.

    Returns the pairs (i_m, j_m) with i_m the m-th smallest of block i
    and j_m the m-th smallest of block j, in rank order.  Every pair has
    i_m <= j_m by the partition's rank-order invariant.
    """
    if not (1 <= i <= e.k_from and 1 <= j <= e.k_from):
        raise IndexOutOfRange(f"unit ({i},{j}) outside 1..{e.k_from}")
    if i > j:
        raise LowerTriangularRequest(f"unit ({i},{j}) lies below the diagonal")
    return tuple(zip(e.diag.block(i), e.diag.block(j)))


def compose_embeddings(
    outer: RegularEmbedding, inner: RegularEmbedding
) -> RegularEmbedding:
    """The embedding applying ``inner`` first, then ``outer``.

    Two alternating forms compose in closed form:
    alt(k*s*t, s', t') o alt(k, s, t) = alt(k, s*s', t*t').
    """
    if inner.k_to != outer.k_from:
        raise ShapeMismatch(
            f"cannot compose {outer.k_from}->{outer.k_to} after {inner.k_from}->{inner.k_to}"
        )
    if outer.st is not None and inner.st is not None:
        return alternating(
            inner.k_from, inner.st[0] * outer.st[0], inner.st[1] * outer.st[1]
        )
    return RegularEmbedding(partitions.compose(outer.diag, inner.diag))


def compare_embeddings(a: RegularEmbedding, b: RegularEmbedding) -> Order:
    """Order two same-shape embeddings by their diagonal partitions.

    Partition equality only certifies agreement on diagonal projections,
    so ``embed compare`` prints ``Order.EQUAL`` as equal-on-projections.
    Two closed forms are ordered by arithmetic, building no partition:
    element x of alt(k, s, t) lies in block ((x - 1) // t) mod k + 1, so
    the forms first differ at x = 1 + min(t, t'), which the smaller t
    sends to the later block.
    """
    if (a.k_from, a.k_to) != (b.k_from, b.k_to):
        raise ShapeMismatch(
            f"cannot compare {a.k_from}->{a.k_to} with {b.k_from}->{b.k_to}"
        )
    if a.st is not None and b.st is not None:
        t, u = a.st[1], b.st[1]
        if a.k_from == 1 or t == u:
            return Order.EQUAL
        return Order.GREATER if t < u else Order.LESS
    return partitions.compare(a.diag, b.diag)


def _tensor_blocks(
    outer: OrderedPartition, inners: Sequence[OrderedPartition]
) -> OrderedPartition:
    """Row-major tensor of ``outer`` with one inner partition per outer block.

    The unit (i, a) -- stored at position (i-1)*j + a, for inner
    partitions of j blocks on {1..j'} -- maps to the slots
    {(i''-1)*j' + b : i'' in outer block i, b in block a of inners[i-1]}.
    Both factors ascend, so every block comes out sorted; the inners must
    share one shape, or the units would not tile {1..m*j'}.
    """
    if len(inners) != outer.block_count:
        raise ShapeMismatch(
            f"{outer.block_count} outer blocks need {outer.block_count} "
            f"inner partitions, got {len(inners)}"
        )
    j, j_to = inners[0].block_count, inners[0].ground_size
    for inner in inners:
        if (inner.block_count, inner.ground_size) != (j, j_to):
            raise ShapeMismatch(
                f"inner partitions differ in shape: {j}|{j_to} "
                f"and {inner.block_count}|{inner.ground_size}"
            )
    _require_within_budget(outer.ground_size * j_to)
    # One broadcast: each outer block's slots, as offsets (K, r), against
    # every element of every block of its inner partition, the inners
    # stacked (K, j, b), or one grid (1, j, b) when all are one partition.
    first = inners[0]
    if all(inner is first for inner in inners):
        stack = first.array[None]
    else:
        stack = np.stack([inner.array for inner in inners])
    offsets = (outer.array - 1) * j_to
    grid = offsets[:, None, :, None] + stack[:, :, None, :]
    return OrderedPartition._trusted(grid.reshape(len(inners) * j, -1))


def tensor_embed(ephi: RegularEmbedding, epsi: RegularEmbedding) -> RegularEmbedding:
    """Tensor product of embeddings, row-major on (outer, inner) indices:
    the diagonal unit (i, a) maps to ephi's block i tensored with epsi's
    block a (see ``_tensor_blocks``)."""
    _require_within_budget(ephi.k_to * epsi.k_to)  # before either diag is built
    return RegularEmbedding(_tensor_blocks(ephi.diag, [epsi.diag] * ephi.k_from))
