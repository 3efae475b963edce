"""Regular embeddings: constructors, unit images, composition, tensor."""

import itertools
import random
import re

import numpy as np
import pytest

from tuhf import checks, embeddings, partitions
from tuhf import (
    Order,
    OrderedPartition,
    RegularEmbedding,
    alternating,
    compare_embeddings,
    compose_embeddings,
    identity_embedding,
    image_of_unit,
    nest,
    parse_descriptor,
    standard,
    tensor_embed,
)
from tuhf.embeddings import (
    IndexOutOfRange,
    LowerTriangularRequest,
    _tensor_blocks,
)
from tuhf.errors import DomainError
from tuhf.partitions import OutOfRange, ShapeMismatch

SMALL = range(1, 5)  # exhaustive ranges of k, s and t for the closed form


def blocks(e: RegularEmbedding) -> tuple[tuple[int, ...], ...]:
    return e.diag.blocks


# -- constructors --------------------------------------------------------

def test_standard_patterns():
    assert blocks(standard(2, 2)) == ((1, 3), (2, 4))
    assert blocks(standard(3, 2)) == ((1, 4), (2, 5), (3, 6))
    assert blocks(standard(3, 1)) == ((1,), (2,), (3,))


def test_nest_patterns():
    assert blocks(nest(2, 2)) == ((1, 2), (3, 4))
    assert blocks(nest(2, 3)) == ((1, 2, 3), (4, 5, 6))
    assert blocks(nest(3, 1)) == ((1,), (2,), (3,))


@pytest.mark.parametrize(
    "make, k, mult", [(standard, 0, 2), (standard, 2, 0), (nest, 0, 3), (nest, 3, -1)]
)
def test_standard_and_nest_refuse_empty_shapes(make, k, mult):
    with pytest.raises(ShapeMismatch, match=rf"^need k, mult >= 1, got k={k} mult={mult}$"):
        make(k, mult)


def test_alternating_pattern():
    assert blocks(alternating(2, 2, 2)) == ((1, 2, 5, 6), (3, 4, 7, 8))
    assert alternating(3, 1, 1).diag == standard(3, 1).diag


def test_alternating_degenerate_factors():
    # the closed form against the explicit reference formulas
    for k, m in itertools.product(SMALL, SMALL):
        for closed, reference in (
            (alternating(k, m, 1), standard(k, m)),
            (alternating(k, 1, m), nest(k, m)),
        ):
            assert closed.diag == reference.diag
            assert closed == reference and reference == closed
            assert hash(closed) == hash(reference)


# -- closed alternating form ----------------------------------------------

def test_alternating_is_closed_form_until_diag_is_read():
    e = alternating(2, 3, 2)
    assert e.st == (3, 2) and e.k_to == 12
    assert repr(e) == "alternating(2, 3, 2)"
    assert repr(standard(2, 1)) == "RegularEmbedding(OrderedPartition(blocks=((1,), (2,))))"
    assert "diag" not in vars(e)
    assert e.diag.blocks == (
        (1, 2, 5, 6, 9, 10),
        (3, 4, 7, 8, 11, 12),
    )
    assert vars(e)["diag"] is e.diag  # built once, then cached
    p = OrderedPartition([[1, 3], [2, 4]])
    assert RegularEmbedding(p).diag is p
    for target in (e, RegularEmbedding(p)):
        for name, value in (("k_to", 24), ("k_from", 1), ("diag", p)):
            with pytest.raises(AttributeError, match=f"immutable; cannot set {name}$"):
                setattr(target, name, value)


def test_rank_image_matches_diag_exhaustively():
    for k, s, t in itertools.product(SMALL, SMALL, SMALL):
        e = alternating(k, s, t)
        explicit = RegularEmbedding(e.diag)
        assert (explicit.k_from, explicit.k_to) == (k, k * s * t)
        for i in range(1, k + 1):
            for r in range(s * t):
                assert e.rank_image(i, r) == e.diag.block(i)[r]
                assert explicit.rank_image(i, r) == e.diag.block(i)[r]


def test_rank_image_ranges():
    # the closed form, its explicit partition and an explicit standard
    # pattern of one shape refuse alike, block index first
    e = alternating(2, 2, 3)
    ranks = (
        e.rank_image,
        RegularEmbedding(e.diag).rank_image,
        standard(2, 6).rank_image,
    )
    for i, r, message in (
        (3, 0, "block index 3 outside 1..2"),
        (0, 0, "block index 0 outside 1..2"),
        (3, 6, "block index 3 outside 1..2"),
        (1, 6, "rank 6 outside 0..5"),
        (1, -1, "rank -1 outside 0..5"),
    ):
        for rank in ranks:
            with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
                rank(i, r)


def test_multiplicity_is_the_dimension_ratio():
    part = parse_descriptor("part 6 m=6 n=2 blocks=1,2,5;3,4,6").embedding(2)
    closed = [alternating(k, s, t) for k, s, t in itertools.product(SMALL, SMALL, SMALL)]
    closed.append(alternating(3, 10**40, 7))  # big factors, exact product
    explicit = [standard(k, mult) for k, mult in itertools.product(SMALL, SMALL)]
    explicit += [nest(k, mult) for k, mult in itertools.product(SMALL, SMALL)]
    for e in closed + explicit + [part]:
        assert e.multiplicity == e.k_to // e.k_from
    assert part.multiplicity == 3 and part.st is None


def test_alternating_equality_is_partition_equality():
    # one block admits a single partition, so every split of k = 1 agrees
    assert alternating(1, 2, 3) == alternating(1, 6, 1)
    assert alternating(1, 2, 3).diag == alternating(1, 6, 1).diag
    # from two blocks on, the split is visible in the partition
    assert alternating(2, 2, 3) != alternating(2, 6, 1)
    assert alternating(2, 2, 3).diag != alternating(2, 6, 1).diag
    assert len({alternating(3, 2, 2), nest(3, 4), standard(3, 4)}) == 3
    # different source sizes are unequal, and not a ShapeMismatch
    assert (alternating(2, 2, 1) == alternating(4, 1, 1)) is False
    assert (alternating(2, 1, 1) == 5) is False


# -- unit images ---------------------------------------------------------

def test_image_of_unit_standard():
    assert image_of_unit(standard(2, 2), 1, 2) == ((1, 2), (3, 4))


def test_image_of_unit_nest():
    assert image_of_unit(nest(2, 2), 1, 2) == ((1, 3), (2, 4))


def test_image_of_unit_diagonal():
    e = alternating(2, 2, 2)
    assert image_of_unit(e, 2, 2) == tuple((x, x) for x in e.diag.block(2))


def test_image_of_unit_triangular():
    # every rank pair of a valid embedding sits on or above the diagonal
    for e in (standard(3, 2), nest(3, 2), alternating(2, 3, 2)):
        for i in range(1, 4):
            for j in range(i, 4):
                if j > e.k_from:
                    continue
                for r, c in image_of_unit(e, i, j):
                    assert r <= c


def test_image_of_unit_errors():
    e = standard(2, 2)
    with pytest.raises(LowerTriangularRequest):
        image_of_unit(e, 2, 1)
    with pytest.raises(IndexOutOfRange):
        image_of_unit(e, 1, 3)


# -- composition ---------------------------------------------------------

def test_compose_alternating_closure():
    # closed-form composition against explicit partition composition
    for k, s1, t1, s2, t2 in itertools.product(SMALL, repeat=5):
        inner = alternating(k, s1, t1)
        outer = alternating(k * s1 * t1, s2, t2)
        got = compose_embeddings(outer, inner)
        assert got == alternating(k, s1 * s2, t1 * t2)
        assert got.st == (s1 * s2, t1 * t2)
        assert got.diag == partitions.compose(outer.diag, inner.diag)


def test_compose_with_identity():
    e = alternating(2, 3, 2)
    assert compose_embeddings(identity_embedding(e.k_to), e) == e
    assert compose_embeddings(e, identity_embedding(2)) == e


def test_compose_std_then_nest_is_alternating():
    got = compose_embeddings(nest(4, 2), standard(2, 2))
    assert blocks(got) == ((1, 2, 5, 6), (3, 4, 7, 8))
    assert got.diag == partitions.compose(nest(4, 2).diag, standard(2, 2).diag)
    assert got.diag == alternating(2, 2, 2).diag


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose_embeddings(standard(3, 2), standard(2, 2))


def test_unit_images_compose_along_interval_chains():
    # functoriality of rank pairing on the std/nest/alt family
    chains = [
        (standard(2, 2), nest(4, 3)),
        (nest(3, 2), standard(6, 2)),
        (alternating(2, 2, 2), alternating(8, 3, 1)),
    ]
    for inner, outer in chains:
        comp = compose_embeddings(outer, inner)
        for i in range(1, inner.k_from + 1):
            for j in range(i, inner.k_from + 1):
                chained = {
                    pair
                    for a, b in image_of_unit(inner, i, j)
                    for pair in image_of_unit(outer, a, b)
                }
                assert chained == set(image_of_unit(comp, i, j))


def test_unit_images_do_not_compose_in_general():
    # rank pairing is not functorial outside the interval family: this
    # valid embedding interleaves blocks 1..3 and composing through the
    # nest doubling pairs ranks differently than the composite does
    f = RegularEmbedding(OrderedPartition.from_blocks(((1, 4), (2, 5), (3, 6), (7, 8))))
    g = nest(2, 2)
    comp = compose_embeddings(f, g)
    chained = {
        pair for a, b in image_of_unit(g, 1, 2) for pair in image_of_unit(f, a, b)
    }
    assert chained == {(1, 3), (4, 6), (2, 7), (5, 8)}
    assert set(image_of_unit(comp, 1, 2)) == {(1, 3), (2, 6), (4, 7), (5, 8)}
    assert chained != set(image_of_unit(comp, 1, 2))


# -- order ---------------------------------------------------------------

def test_compare_embeddings_examples():
    assert compare_embeddings(nest(2, 2), standard(2, 2)) is Order.LESS
    assert compare_embeddings(standard(2, 2), nest(2, 2)) is Order.GREATER
    e = alternating(2, 2, 2)
    assert compare_embeddings(e, e) is Order.EQUAL


def test_compare_embeddings_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compare_embeddings(standard(2, 2), standard(2, 3))


def _splits(n: int):
    return [(d, n // d) for d in range(1, n + 1) if n % d == 0]


def test_closed_form_order_is_partition_order():
    # every split s'*t' = s*t of every small closed form, against the
    # order of the two built partitions; == agrees with diag equality
    # whichever side is closed and whichever explicit
    pairs = 0
    for k, s, t in itertools.product(range(1, 6), SMALL, SMALL):
        a = alternating(k, s, t)
        for s2, t2 in _splits(s * t):
            b = alternating(k, s2, t2)
            want = partitions.compare(a.diag, b.diag)
            equal = a.diag == b.diag
            assert compare_embeddings(a, b) is want, (k, s, t, s2, t2)
            explicit_a, explicit_b = RegularEmbedding(a.diag), RegularEmbedding(b.diag)
            for x, y in itertools.product((a, explicit_a), (b, explicit_b)):
                assert compare_embeddings(x, y) is want
                assert (x == y) is equal and (y == x) is equal
            pairs += 1
    assert pairs == 270


def test_closed_forms_compare_without_building_a_partition(monkeypatch):
    def refuse(k, s, t):
        raise AssertionError(f"built the grid of alternating({k}, {s}, {t})")

    monkeypatch.setattr(embeddings, "_alternating_grid", refuse)
    for (s, t), (s2, t2), want in (
        ((2, 2), (1, 4), Order.GREATER),
        ((1, 4), (4, 1), Order.LESS),
        ((4, 1), (2, 2), Order.GREATER),
        ((2, 2), (2, 2), Order.EQUAL),
    ):
        assert compare_embeddings(alternating(3, s, t), alternating(3, s2, t2)) is want
    assert alternating(1, 2, 3) == alternating(1, 6, 1)
    assert alternating(2, 2, 3) != alternating(2, 6, 1)
    big = alternating(1000, 1000, 1000)  # 10^9 elements, far over MAX_GROUND
    assert compare_embeddings(big, alternating(1000, 1000, 1000)) is (
        Order.EQUAL
    )
    assert big == alternating(1000, 1000, 1000)
    assert "diag" not in vars(big)


def test_order_preserved_under_composition():
    a, b = nest(2, 2), standard(2, 2)
    c = alternating(4, 2, 2)
    assert compare_embeddings(a, b) is Order.LESS
    assert (
        compare_embeddings(compose_embeddings(c, a), compose_embeddings(c, b))
        is Order.LESS
    )


# -- tensor --------------------------------------------------------------

def test_tensor_identity():
    got = tensor_embed(identity_embedding(2), identity_embedding(3))
    assert got == identity_embedding(6)


def test_tensor_std_std_block():
    got = tensor_embed(standard(2, 2), standard(2, 2))
    assert got.k_from == 4 and got.k_to == 16
    assert got.diag.block(1) == (1, 3, 9, 11)


def test_tensor_std_nest_is_alternating():
    got = tensor_embed(standard(2, 2), nest(2, 2))
    assert got.diag == alternating(4, 2, 2).diag


def test_tensor_tower_reproduces_alternating_chain():
    # tensoring the standard and nest doublings level by level gives the
    # alternating doubling at every level
    for n in range(4):
        k = 2**n
        got = tensor_embed(standard(k, 2), nest(k, 2))
        assert got.diag == alternating(k * k, 2, 2).diag


def test_tensor_inners_must_share_one_shape():
    outer = OrderedPartition([[1], [2]])
    four_into_two = OrderedPartition([[1, 2], [3, 4]])
    # Equal widths but different shapes once tiled a valid, meaningless
    # partition; different widths ended in numpy's concatenate error.
    for other, shape in (([[1, 3], [2, 5], [4, 6]], "3|6"), ([[1, 2, 3], [4, 5, 6]], "2|6")):
        with pytest.raises(
            ShapeMismatch, match=rf"^inner partitions differ in shape: 2\|4 and {re.escape(shape)}$"
        ):
            _tensor_blocks(outer, [four_into_two, OrderedPartition(other)])


def test_tensor_needs_one_inner_per_outer_block():
    outer = OrderedPartition([[1], [2]])
    inner = OrderedPartition([[1, 2], [3, 4]])
    for count in (0, 1, 3):
        with pytest.raises(
            ShapeMismatch, match=rf"^2 outer blocks need 2 inner partitions, got {count}$"
        ):
            _tensor_blocks(outer, [inner] * count)


def _tensor_by_block(outer, inners):
    # the reference: one broadcast per outer block, its slots as offsets
    # against every element of every block of its inner, then one concatenate
    j_to = inners[0].ground_size
    rows = [
        (offsets[None, :, None] + inner.array[:, None, :]).reshape(inner.block_count, -1)
        for offsets, inner in zip((outer.array - 1) * j_to, inners, strict=True)
    ]
    return OrderedPartition(np.concatenate(rows))


@pytest.mark.parametrize("k, r", [(1, 3), (2, 2), (4, 3), (6, 1)])
@pytest.mark.parametrize("distinct", ["one", "two", "all"])
def test_tensor_kernel_matches_the_per_block_loop(k, r, distinct):
    rng = random.Random(f"{k}:{r}:{distinct}")
    outer = checks.random_ordered_partition(rng, k * r, k)
    pool = []  # distinct inner partitions of one shape, 3|12
    while len(pool) < k:
        p = checks.random_ordered_partition(rng, 12, 3)
        if p not in pool:
            pool.append(p)
    inners = {
        "one": [pool[0]] * k,  # one object, as tensor_embed passes it
        "two": [pool[b % 2] if k > 1 else pool[0] for b in range(k)],
        "all": pool,
    }[distinct]
    got = _tensor_blocks(outer, inners)
    assert got == _tensor_by_block(outer, inners)
    assert got.array.shape == (k * 3, r * 4)
    # equal inners that are distinct objects take the stacked path alike
    copies = [OrderedPartition(inner.array.copy()) for inner in inners]
    assert _tensor_blocks(outer, copies) == got


class _Unread:
    """A partition's shape whose array must not be read."""

    def __init__(self, n, m):
        self.block_count, self.ground_size = n, m

    @property
    def array(self):
        raise AssertionError("an array was read before the refusal")


def test_tensor_refusals_come_before_any_array():
    with pytest.raises(ShapeMismatch, match=r"^inner partitions differ in shape: 2\|4 and 3\|6$"):
        _tensor_blocks(_Unread(2, 4), [_Unread(2, 4), _Unread(3, 6)])
    big = _Unread(2, 1 << 11)
    with pytest.raises(DomainError, match=r"^refusing to build a partition of 8388608 elements"):
        _tensor_blocks(_Unread(2, 1 << 12), [big, big])
    with pytest.raises(DomainError, match=r"^refusing to build a partition of 8388608 elements"):
        _tensor_blocks(_Unread(2, 1 << 12), [big, _Unread(2, 1 << 11)])
