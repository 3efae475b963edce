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
r-th element of a block by arithmetic, and builds its partition only
when ``diag`` is read.  ``standard`` and ``nest`` build their block
formulas explicitly and serve as the reference the closed form is
checked against, so the tensor identities relating the three stay
honest, independently checkable facts rather than definitions.

``_tensor_blocks`` is the one row-major tensor formula: ``tensor_embed``
and the blockwise automorphisms of tensor towers both build through it.
Partitions whose size comes from arithmetic rather than from an input
(a closed form's ``diag``, a tensor product) are refused with a
``DomainError`` above ``MAX_GROUND`` elements instead of exhausting
memory.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import partitions
from .errors import DomainError
from .partitions import Order, OrderedPartition, OutOfRange, ShapeMismatch

MAX_GROUND = 1 << 22


def _require_within_budget(m: int) -> None:
    if m > MAX_GROUND:
        raise DomainError(
            f"refusing to build a partition of {m} elements (limit {MAX_GROUND})"
        )


def _alternating_grid(k: int, s: int, t: int) -> np.ndarray:
    """The blocks of I_s (x) A_k (x) I_t as a (k, s*t) array: the ground
    1..kst laid out as s copies of k slots of t, read slot by slot."""
    _require_within_budget(k * s * t)
    return np.arange(1, k * s * t + 1).reshape(s, k, t).transpose(1, 0, 2).reshape(k, s * t)


def _freeze(
    e: RegularEmbedding,
    k_from: int,
    k_to: int,
    st: Optional[tuple[int, int]],
    diag: Optional[OrderedPartition],
) -> RegularEmbedding:
    for name, value in (("k_from", k_from), ("k_to", k_to), ("st", st), ("_diag", diag)):
        object.__setattr__(e, name, value)
    return e


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
    partition, and ``diag`` is built (and fully validated) when read.
    Instances are immutable; equality is equality of the diagonal
    partitions.
    """

    def __init__(self, diag: OrderedPartition) -> None:
        _freeze(self, diag.block_count, diag.ground_size, None, diag)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RegularEmbedding is immutable; cannot set {name}")

    @property
    def diag(self) -> OrderedPartition:
        if self._diag is None:
            s, t = self.st  # type: ignore[misc]
            object.__setattr__(
                self, "_diag", OrderedPartition(_alternating_grid(self.k_from, s, t))
            )
        return self._diag  # type: ignore[return-value]

    @property
    def multiplicity(self) -> int:
        return self.k_to // self.k_from

    def rank_image(self, i: int, r: int) -> int:
        """The r-th smallest element (r from 0) of block i (from 1)."""
        if not 1 <= i <= self.k_from:
            raise OutOfRange(f"block index {i} outside 1..{self.k_from}")
        if not 0 <= r < self.multiplicity:
            raise OutOfRange(f"rank {r} outside 0..{self.multiplicity - 1}")
        if self.st is None:
            return int(self.diag.array[i - 1, r])
        t = self.st[1]
        return (r // t) * self.k_from * t + (i - 1) * t + r % t + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularEmbedding):
            return NotImplemented
        if (self.k_from, self.k_to) != (other.k_from, other.k_to):
            return False
        if self.st is not None and other.st is not None:
            # One block admits a single partition whatever the split.
            return self.k_from == 1 or self.st == other.st
        return self.diag == other.diag

    def __hash__(self) -> int:
        return hash((self.k_from, self.k_to))

    def __repr__(self) -> str:
        if self.st is not None:
            return "alternating({}, {}, {})".format(self.k_from, *self.st)
        return f"RegularEmbedding({self._diag!r})"


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
    return _freeze(e, k, k * s_mult * t_mult, (s_mult, t_mult), None)


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


class EmbeddingOrder(enum.Enum):
    LESS = "less"
    EQUAL_ON_PROJECTIONS = "equal-on-projections"
    GREATER = "greater"


_ORDER_MAP = {
    Order.LESS: EmbeddingOrder.LESS,
    Order.EQUAL: EmbeddingOrder.EQUAL_ON_PROJECTIONS,
    Order.GREATER: EmbeddingOrder.GREATER,
}


def compare_embeddings(a: RegularEmbedding, b: RegularEmbedding) -> EmbeddingOrder:
    """Order two same-shape embeddings by their diagonal partitions.

    Partition equality only certifies agreement on diagonal projections,
    hence the middle verdict's name.
    """
    if (a.k_from, a.k_to) != (b.k_from, b.k_to):
        raise ShapeMismatch(
            f"cannot compare {a.k_from}->{a.k_to} with {b.k_from}->{b.k_to}"
        )
    return _ORDER_MAP[partitions.compare(a.diag, b.diag)]


def regularize(raw: Mapping[int, Iterable[int]]) -> RegularEmbedding:
    """Canonical regular embedding from diagonal-unit image sets.

    ``raw`` maps each diagonal index 1..k to the set of diagonal slots
    its image occupies.  The sets must form an ordered partition (equal
    sizes, rank-ordered); off-diagonal images are then fixed by rank
    pairing, the unique triangularity-compatible completion.
    """
    k = len(raw)
    if sorted(raw) != list(range(1, k + 1)):
        raise partitions.InvalidPartition(
            f"diagonal indices must be exactly 1..{k}, got {sorted(raw)}"
        )
    diag = OrderedPartition.from_blocks(raw[i] for i in range(1, k + 1))
    return RegularEmbedding(diag)


def _tensor_blocks(
    outer: OrderedPartition, inners: Sequence[OrderedPartition]
) -> OrderedPartition:
    """Row-major tensor of ``outer`` with one inner partition per outer block.

    The unit (i, a) -- stored at position (i-1)*j + a, for inner
    partitions of j blocks on {1..j'} -- maps to the slots
    {(i''-1)*j' + b : i'' in outer block i, b in block a of inners[i-1]}.
    Both factors ascend, so every block comes out sorted.
    """
    j_to = inners[0].ground_size
    _require_within_budget(outer.ground_size * j_to)
    # One broadcast per outer block: its slots, as offsets, against every
    # element of every block of its inner partition.
    rows = [
        (offsets[None, :, None] + inner.array[:, None, :]).reshape(inner.block_count, -1)
        for offsets, inner in zip((outer.array - 1) * j_to, inners, strict=True)
    ]
    return OrderedPartition(np.concatenate(rows))


def tensor_embed(ephi: RegularEmbedding, epsi: RegularEmbedding) -> RegularEmbedding:
    """Tensor product of embeddings, row-major on (outer, inner) indices:
    the diagonal unit (i, a) maps to ephi's block i tensored with epsi's
    block a (see ``_tensor_blocks``)."""
    return RegularEmbedding(_tensor_blocks(ephi.diag, [epsi.diag] * ephi.k_from))
