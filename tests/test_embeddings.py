"""Regular embeddings: constructors, unit images, composition, tensor."""

import itertools

import pytest

from tuhf import partitions
from tuhf import (
    EmbeddingOrder,
    OrderedPartition,
    RegularEmbedding,
    alternating,
    compare_embeddings,
    compose_embeddings,
    identity_embedding,
    image_of_unit,
    nest,
    regularize,
    standard,
    tensor_embed,
)
from tuhf.embeddings import IndexOutOfRange, LowerTriangularRequest
from tuhf.partitions import InvalidPartition, OutOfRange, ShapeMismatch

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
    assert e.diag.blocks == (
        (1, 2, 5, 6, 9, 10),
        (3, 4, 7, 8, 11, 12),
    )
    assert e.diag is e.diag  # built once, then cached
    with pytest.raises(AttributeError):
        e.k_to = 24


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
    for e in (alternating(2, 2, 3), standard(2, 6)):
        with pytest.raises(OutOfRange):
            e.rank_image(3, 0)
        with pytest.raises(OutOfRange):
            e.rank_image(1, 6)
        with pytest.raises(OutOfRange):
            e.rank_image(1, -1)


def test_alternating_equality_is_partition_equality():
    # one block admits a single partition, so every split of k = 1 agrees
    assert alternating(1, 2, 3) == alternating(1, 6, 1)
    assert alternating(1, 2, 3).diag == alternating(1, 6, 1).diag
    # from two blocks on, the split is visible in the partition
    assert alternating(2, 2, 3) != alternating(2, 6, 1)
    assert alternating(2, 2, 3).diag != alternating(2, 6, 1).diag
    assert len({alternating(3, 2, 2), nest(3, 4), standard(3, 4)}) == 3


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
    assert compare_embeddings(nest(2, 2), standard(2, 2)) is EmbeddingOrder.LESS
    assert compare_embeddings(standard(2, 2), nest(2, 2)) is EmbeddingOrder.GREATER
    e = alternating(2, 2, 2)
    assert compare_embeddings(e, e) is EmbeddingOrder.EQUAL_ON_PROJECTIONS


def test_compare_embeddings_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compare_embeddings(standard(2, 2), standard(2, 3))


def test_order_preserved_under_composition():
    a, b = nest(2, 2), standard(2, 2)
    c = alternating(4, 2, 2)
    assert compare_embeddings(a, b) is EmbeddingOrder.LESS
    assert (
        compare_embeddings(compose_embeddings(c, a), compose_embeddings(c, b))
        is EmbeddingOrder.LESS
    )


# -- regularize ----------------------------------------------------------

def test_regularize_standard():
    assert regularize({1: (1, 3), 2: (2, 4)}) == standard(2, 2)


def test_regularize_alternating():
    got = regularize({1: (1, 2, 5, 6), 2: (3, 4, 7, 8)})
    assert got == alternating(2, 2, 2)


def test_regularize_rejects_rank_violation():
    with pytest.raises(InvalidPartition):
        regularize({1: (1, 4), 2: (2, 3)})


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
