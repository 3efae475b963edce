"""Matrix-level checks: splits, straightening, and the Kronecker bridge."""

import random

import numpy as np
import pytest

from tuhf import (
    ComplexUpperTriangular,
    DiagonalUnitary,
    PartialPermutationMatrix,
    RegularEmbedding,
    alternating,
    apply_to_matrix,
    conjugate_by_diagonal,
    format_matrix,
    image_of_unit,
    nest,
    normalizer_split,
    parse_matrix,
    recompose,
    standard,
    straighten_level,
)
from tuhf.checks import random_ordered_partition, random_upper_triangular
from tuhf.errors import FormatError
from tuhf.matrices import (
    NonUnimodularPhase,
    NotNormalizingPartialIsometry,
    NotUpperTriangular,
)
from tuhf.partitions import ShapeMismatch


def upper(k, entries):
    m = np.zeros((k, k), dtype=complex)
    for (r, c), v in entries.items():
        m[r - 1, c - 1] = v
    return ComplexUpperTriangular(m)


# -- types ---------------------------------------------------------------

def test_upper_triangular_rejects_lower_entries():
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 1.0
    with pytest.raises(NotUpperTriangular):
        ComplexUpperTriangular(m)


def test_partial_permutation_invariants():
    w = PartialPermutationMatrix(3, ((1, 2), (2, 3)))
    assert w.rows() == frozenset({1, 2})
    with pytest.raises(NotUpperTriangular):
        PartialPermutationMatrix(3, ((2, 1),))  # below the diagonal
    with pytest.raises(NotNormalizingPartialIsometry):
        PartialPermutationMatrix(3, ((1, 2), (1, 3)))  # row used twice
    with pytest.raises(NotNormalizingPartialIsometry):
        PartialPermutationMatrix(3, ((1, 3), (2, 3)))  # column used twice


def test_diagonal_unitary_checks_modulus():
    with pytest.raises(NonUnimodularPhase):
        DiagonalUnitary((1.0, 0.5))


# -- normalizer split ----------------------------------------------------

def test_split_worked_example():
    v = upper(3, {(1, 2): 1j, (2, 3): 1.0})
    d, w = normalizer_split(v)
    assert w == PartialPermutationMatrix(3, ((1, 2), (2, 3)))
    assert np.allclose(d.phases, (1j, 1.0, 1.0))


def test_split_of_bare_pattern_gives_identity_phases():
    w0 = PartialPermutationMatrix(4, ((1, 2), (3, 4)))
    d, w = normalizer_split(ComplexUpperTriangular(w0.to_matrix()))
    assert w == w0
    assert np.allclose(d.phases, np.ones(4))


def test_split_rejects_row_conflict():
    v = upper(3, {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(NotNormalizingPartialIsometry):
        normalizer_split(v)


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(1, 2): 1.0, (1, 3): 1.0}, "two entries in row 1"),
        ({(1, 3): 1j, (2, 3): 1.0}, "two entries in column 3"),
        # the conflict is named even after an entry of the wrong modulus
        ({(1, 1): 0.5, (2, 2): 1.0, (2, 3): -1.0}, "two entries in row 2"),
    ],
    ids=["row", "column", "row-after-modulus"],
)
def test_split_conflicts_carry_the_partial_permutation_message(entries, message):
    with pytest.raises(NotNormalizingPartialIsometry) as want:
        PartialPermutationMatrix(3, tuple(sorted(entries)))
    with pytest.raises(NotNormalizingPartialIsometry) as got:
        normalizer_split(upper(3, entries))
    assert str(got.value) == str(want.value) == message


def test_split_rejects_nonunimodular_entry():
    v = upper(3, {(1, 2): 0.5})
    with pytest.raises(NotNormalizingPartialIsometry):
        normalizer_split(v)


def test_split_recompose_round_trip():
    rng = np.random.default_rng(7)
    for k in (1, 2, 5, 9):
        cols = list(range(1, k + 1))
        pairs = tuple(
            (r, c)
            for r, c in zip(sorted(rng.choice(cols, size=k // 2 + 1, replace=False)), cols)
            if r <= c
        )
        w = PartialPermutationMatrix(k, pairs)
        phases = tuple(
            np.exp(1j * rng.uniform(0, 2 * np.pi)) if r in w.rows() else 1.0
            for r in range(1, k + 1)
        )
        d = DiagonalUnitary(phases)
        d2, w2 = normalizer_split(recompose(d, w))
        assert w2 == w
        assert np.allclose(d2.phases, d.phases, atol=1e-9)


# -- kronecker bridge ----------------------------------------------------

def test_apply_standard_matches_kron():
    m = upper(2, {(1, 1): 2.0, (1, 2): 1j, (2, 2): -1.0})
    got = apply_to_matrix(standard(2, 3), m)
    want = np.kron(np.eye(3), m.entries)
    assert np.max(np.abs(got.entries - want)) <= 1e-12


def test_apply_nest_matches_kron():
    m = upper(2, {(1, 2): 1.0 + 2j})
    got = apply_to_matrix(nest(2, 3), m)
    want = np.kron(m.entries, np.eye(3))
    assert np.max(np.abs(got.entries - want)) <= 1e-12


def test_apply_alternating_matches_kron():
    m = upper(3, {(1, 3): -2j, (2, 2): 1.0})
    got = apply_to_matrix(alternating(3, 2, 2), m)
    want = np.kron(np.eye(2), np.kron(m.entries, np.eye(2)))
    assert np.max(np.abs(got.entries - want)) <= 1e-12


def test_apply_unit_example():
    got = apply_to_matrix(standard(2, 2), upper(2, {(1, 2): 1.0}))
    want = upper(4, {(1, 2): 1.0, (3, 4): 1.0})
    assert np.array_equal(got.entries, want.entries)


def test_apply_zero_and_identity():
    e = alternating(2, 2, 2)
    zero = ComplexUpperTriangular(np.zeros((2, 2), dtype=complex))
    assert not apply_to_matrix(e, zero).entries.any()
    ident = ComplexUpperTriangular(np.eye(2, dtype=complex))
    assert np.array_equal(apply_to_matrix(e, ident).entries, np.eye(8))


def _apply_by_units(e, m):
    """Reference: the sum over units (i, j) of m[i, j] times the image
    of the unit, read pair by pair."""
    out = np.zeros((e.k_to, e.k_to), dtype=complex)
    for i in range(1, m.k + 1):
        for j in range(i, m.k + 1):
            for r, c in image_of_unit(e, i, j):
                out[r - 1, c - 1] += m.entries[i - 1, j - 1]
    return out


def test_apply_matches_the_unit_sum_on_part_embeddings():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 6)
        mult = rng.randint(1, 5)
        e = RegularEmbedding(random_ordered_partition(rng, k * mult, k))
        assert (e.k_from, e.k_to, e.multiplicity) == (k, k * mult, mult)
        m = random_upper_triangular(rng, k)
        assert np.array_equal(apply_to_matrix(e, m).entries, _apply_by_units(e, m))


def test_apply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply_to_matrix(standard(2, 2), upper(3, {}))


# -- straightening -------------------------------------------------------

def test_straighten_identity_phases_is_identity():
    w = PartialPermutationMatrix(4, ((1, 3), (2, 4)))
    d = DiagonalUnitary((1.0,) * 4)
    u = straighten_level([(d, w)], [(1, 2), (3, 4)])
    assert np.allclose(u.phases, np.ones(4))


def test_straighten_removes_single_phase():
    # one image i*w with supports {1},{2}: u_2 picks up the conjugate
    # phase and conjugation leaves the bare permutation
    w = PartialPermutationMatrix(2, ((1, 2),))
    d = DiagonalUnitary((1j, 1.0))
    u = straighten_level([(d, w)], [(1,), (2,)])
    conj = conjugate_by_diagonal(u, recompose(d, w))
    assert np.max(np.abs(conj.entries - w.to_matrix())) <= 1e-9


def test_straighten_chain_of_three():
    rng = np.random.default_rng(3)
    supports = [(1, 2), (3, 4), (5, 6)]
    images = []
    for i in range(2):
        w = PartialPermutationMatrix(
            6, tuple(zip(supports[i], supports[i + 1]))
        )
        phases = tuple(
            np.exp(1j * rng.uniform(0, 2 * np.pi)) if r in w.rows() else 1.0
            for r in range(1, 7)
        )
        images.append((DiagonalUnitary(phases), w))
    u = straighten_level(images, supports)
    for d, w in images:
        conj = conjugate_by_diagonal(u, recompose(d, w))
        assert np.max(np.abs(conj.entries - w.to_matrix())) <= 1e-9


IDENTITY2 = DiagonalUnitary((1.0, 1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: ComplexUpperTriangular(np.zeros((2, 3))),
            "need a square matrix, got shape (2, 3)",
        ),
        (lambda: PartialPermutationMatrix(0, ()), "dimension must be positive, got 0"),
        (lambda: PartialPermutationMatrix(2, ((1, 3),)), "pair (1,3) outside 1..2"),
        (lambda: DiagonalUnitary(()), "need at least one phase"),
        (
            lambda: recompose(IDENTITY2, PartialPermutationMatrix(3, ())),
            "dimension mismatch 2 vs 3",
        ),
        (
            lambda: conjugate_by_diagonal(IDENTITY2, ComplexUpperTriangular(np.eye(3))),
            "dimension mismatch 2 vs 3",
        ),
        (lambda: straighten_level([(IDENTITY2, None)], [(1,), (1,)]), "supports must be disjoint"),
        (lambda: straighten_level([(IDENTITY2, None)], [(1,), (3,)]), "supports must cover 1..2"),
        (
            lambda: straighten_level(
                [(DiagonalUnitary((1.0,) * 3), PartialPermutationMatrix(3, ((1, 2),)))],
                [(1,), (2,)],
            ),
            "image 1 has dimension 3x3, expected 2",
        ),
    ],
    ids=[
        "square", "ppm-dimension", "ppm-pair", "no-phase", "recompose", "conjugate",
        "straighten-disjoint", "straighten-cover", "straighten-dimension",
    ],
)
def test_shape_checks(call, message):
    with pytest.raises(ShapeMismatch) as exc:
        call()
    assert type(exc.value) is ShapeMismatch and str(exc.value) == message


def test_straighten_shape_errors():
    w = PartialPermutationMatrix(4, ((1, 3), (2, 4)))
    d = DiagonalUnitary((1.0,) * 4)
    with pytest.raises(ShapeMismatch):
        straighten_level([(d, w)], [(1, 2)])  # one support short
    with pytest.raises(ShapeMismatch):
        straighten_level([(d, w)], [(1, 2), (2, 3)])  # overlap


# -- serialization -------------------------------------------------------

def test_matrix_format_round_trip():
    v = upper(3, {(1, 2): 1j, (2, 3): -0.25 + 0.5j})
    text = format_matrix(v)
    assert text.splitlines()[0] == "dim 3"
    back = parse_matrix(text)
    assert np.array_equal(back.entries, v.entries)


def test_matrix_text_skips_comments_and_blank_lines():
    text = "# a phase\n\ndim 2  # k\n1,0 0,1\n\n   # row 2 follows\n0,0 0,-1\n"
    assert np.array_equal(parse_matrix(text).entries, np.array([[1, 1j], [0, -1j]]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "matrix text must start with a 'dim <k>' line"),
        ("# only a comment\n", "matrix text must start with a 'dim <k>' line"),
        ("size 2\n1,0\n", "matrix text must start with a 'dim <k>' line"),
        ("dim x\n", "bad dimension 'x'"),
        ("dim 0\n", "dimension must be positive, got 0"),
        ("dim 2\n1,0 0,0\n", "expected 2 rows, got 1"),
        ("dim 1\n1,0\n# extra\n1,0\n", "expected 1 rows, got 2"),
        ("dim 2\n1,0\n0,0 1,0\n", "row 1 has 1 entries, expected 2"),
        ("dim 1\n1\n", "entry (1,1) is not a re,im pair: '1'"),
        ("dim 2\n1,0 0,0\n0,0 a,b\n", "entry (2,2) is not numeric: 'a,b'"),
    ],
    ids=[
        "empty", "comment-only", "no-dim", "dim-int", "dim-zero", "few-rows", "many-rows",
        "row-width", "pair", "numeric",
    ],
)
def test_matrix_text_errors(text, message):
    with pytest.raises(FormatError) as exc:
        parse_matrix(text)
    assert type(exc.value) is FormatError and str(exc.value) == message
