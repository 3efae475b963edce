"""Shift words, interval-form factorization, rank, torsion, tensor autos."""

from fractions import Fraction

import numpy as np
import pytest

from tuhf import (
    Descriptor,
    FiniteAutoData,
    OrderedPartition,
    RegularEmbedding,
    ShiftWord,
    TensorTower,
    TowerSpec,
    alternating,
    alternating_iso,
    combine_tensor_autos,
    common_infinite_primes,
    compose,
    detect_interval_form,
    dirichlet_dimension_check,
    factor_automorphism,
    factor_report,
    format_auto_data,
    format_word,
    lift_block_words,
    load_auto_data,
    materialize_word,
    out_rank,
    parse_word,
    shift_auto,
    tensor_embed,
    torsion_check,
    validate_word,
)
from tuhf.automorphisms import (
    InconsistentLevels,
    InvalidShiftWord,
    NotIntervalForm,
    PrimeNotCommonInfinite,
    TowerNotNormalizedForPrime,
    UnderdeterminedWord,
    word_action,
)
from tuhf.partitions import OutOfRange
from tuhf.towers import NotAlternatingTower

IDENT = ShiftWord.identity()


def alt_tower(k1, s_mult, t_mult, s1=None):
    s1 = s1 if s1 is not None else 1
    return TowerSpec(k1, s1, k1 // s1, (), (Descriptor("alt", s_mult, t_mult),))


# -- words ---------------------------------------------------------------

def test_word_requires_coprime_positive():
    with pytest.raises(InvalidShiftWord):
        ShiftWord(2, 4)
    with pytest.raises(InvalidShiftWord):
        ShiftWord(0, 1)
    assert ShiftWord(2, 1).is_identity is False
    assert IDENT.is_identity is True


@pytest.mark.parametrize(
    "u, v", [(np.int64(3), 1), (1, 2.0), (True, 1)], ids=["numpy", "float", "bool"]
)
def test_word_components_are_python_ints(u, v):
    # ShiftWord(np.int64(3), 1).power(50) used to overflow
    with pytest.raises(InvalidShiftWord, match="must be integers"):
        ShiftWord(u, v)


def test_word_algebra():
    w = ShiftWord(2, 3)
    assert w.inverse() == ShiftWord(3, 2)
    assert w.compose(w.inverse()) == IDENT
    assert w.power(2) == ShiftWord(4, 9)
    assert w.power(0) == IDENT
    # composition reduces: (2/3) * (3/2) cancels completely
    assert ShiftWord(2, 1).compose(ShiftWord(1, 2)) == IDENT


def test_word_serialization():
    assert format_word(ShiftWord(2, 3)) == "2/3"
    assert parse_word("2/3") == ShiftWord(2, 3)
    with pytest.raises(Exception):
        parse_word("5")  # the slash is mandatory
    with pytest.raises(InvalidShiftWord):
        parse_word("4/2")


def test_validate_word_is_tower_relative(two_inf_alt):
    validate_word(two_inf_alt, ShiftWord(2, 1))
    with pytest.raises(InvalidShiftWord):
        validate_word(two_inf_alt, ShiftWord(3, 1))  # 3 not common-infinite


def test_common_infinite_primes(two_inf_alt):
    assert common_infinite_primes(two_inf_alt) == frozenset({2})
    assert common_infinite_primes(alt_tower(1, 6, 6)) == frozenset({2, 3})


# -- shift automorphisms --------------------------------------------------

def test_shift_level_one_blocks(two_inf_alt):
    first = next(shift_auto(two_inf_alt, 2, 1, 2))
    assert first.level_from == 1 and first.level_to == 2
    assert first.action.blocks == (
        (1, 5, 9, 13),
        (2, 6, 10, 14),
        (3, 7, 11, 15),
        (4, 8, 12, 16),
    )


def test_shift_rejects_finite_prime(two_inf_alt):
    with pytest.raises(PrimeNotCommonInfinite):
        shift_auto(two_inf_alt, 3, 1, 2)


def test_shift_requires_normalized_tower():
    # 2 is infinite on both sides but the second cycle step has s-ratio 1
    t = TowerSpec(
        1, cycle=(Descriptor("alt", 4, 2), Descriptor("alt", 1, 2))
    )
    assert 2 in common_infinite_primes(t)
    with pytest.raises(
        TowerNotNormalizedForPrime, match=r"^descriptor 2 \(alt\) lacks the factor 2 "
    ):
        shift_auto(t, 2, 1, 2)
    from tuhf import normalize_for_prime

    fixed = normalize_for_prime(t, 2)
    datum = next(shift_auto(fixed, 2, 1, 2))
    assert datum.action.block_count == fixed.level_dim(1)


def test_shift_starts_at_the_requested_level(two_inf_alt):
    from_one = list(shift_auto(two_inf_alt, 2, 1, 4))
    (from_three,) = shift_auto(two_inf_alt, 2, 3, 4)
    assert (from_three.level_from, from_three.level_to) == (3, 4)
    assert from_three == from_one[2]
    with pytest.raises(OutOfRange):
        shift_auto(two_inf_alt, 2, 0, 2)


def test_shift_preserves_total_size(two_inf_alt):
    for d in shift_auto(two_inf_alt, 2, 1, 4):
        assert d.action.ground_size == two_inf_alt.level_dim(d.level_to)


def test_shift_well_defined_square(two_inf_alt):
    # theta_2 after phi_n equals phi_{n+1} after theta_2 at the first levels
    t = two_inf_alt
    w = ShiftWord(2, 1)
    for n in (1, 2):
        lhs = compose(word_action(t, w, n + 1), t.embedding(n).diag)
        rhs = compose(t.embedding(n + 1).diag, word_action(t, w, n))
        assert lhs == rhs


def test_shift_words_commute():
    t = alt_tower(1, 6, 6)
    w2, w3 = ShiftWord(2, 1), ShiftWord(3, 1)
    # theta_2 then theta_3 equals theta_3 then theta_2 across levels 1..3
    lhs = compose(word_action(t, w3, 2), word_action(t, w2, 1))
    rhs = compose(word_action(t, w2, 2), word_action(t, w3, 1))
    assert lhs == rhs


# -- interval form and factorization ---------------------------------------

def test_detect_interval_form_examples():
    # the reading is the closed-form embedding whose diagonal is the input
    alt_p = OrderedPartition.from_blocks(((1, 2, 5, 6), (3, 4, 7, 8)))
    alt_e = detect_interval_form(alt_p)
    assert alt_e.st == (2, 2) and alt_e == alternating(2, 2, 2) and alt_e.diag == alt_p

    std_p = OrderedPartition.from_blocks(((1, 3), (2, 4)))
    std_e = detect_interval_form(std_p)
    assert std_e.st == (2, 1) and std_e.diag == std_p

    ragged = OrderedPartition.from_blocks(((1, 2, 3, 5), (4, 6, 7, 8)))
    assert detect_interval_form(ragged) is None


def test_materialize_is_one_application(two_inf_alt):
    # a datum spanning several levels applies the word once at the bottom
    # and rides the tower's own inclusions the rest of the way
    t = two_inf_alt
    w = ShiftWord(2, 1)
    direct = materialize_word(t, w, 1, 3)
    assert direct.action == compose(t.composite(2, 3).diag, word_action(t, w, 1))


def test_factor_shift_data(two_inf_alt):
    w = ShiftWord(2, 1)
    data = [materialize_word(two_inf_alt, w, m, m + 1) for m in (1, 2)]
    assert factor_automorphism(two_inf_alt, data) == w


def test_factor_inverse_direction(two_inf_alt):
    w = ShiftWord(1, 2)
    data = [materialize_word(two_inf_alt, w, m, m + 1) for m in (1, 2)]
    assert factor_automorphism(two_inf_alt, data) == w


def test_factor_identity_is_trivial_word(two_inf_alt):
    data = [
        FiniteAutoData(m, m + 1, two_inf_alt.embedding(m).diag) for m in (1, 2)
    ]
    assert factor_automorphism(two_inf_alt, data) == IDENT


def test_factor_multi_span_data(two_inf_alt):
    w = ShiftWord(2, 1)
    data = [
        materialize_word(two_inf_alt, w, 1, 3),
        materialize_word(two_inf_alt, w, 2, 4),
    ]
    assert factor_automorphism(two_inf_alt, data) == w


def test_factor_inconsistent_levels(two_inf_alt):
    data = [
        materialize_word(two_inf_alt, ShiftWord(2, 1), 1, 2),
        FiniteAutoData(2, 3, two_inf_alt.embedding(2).diag),  # identity datum
    ]
    with pytest.raises(InconsistentLevels):
        factor_automorphism(two_inf_alt, data)


def test_factor_not_interval_form(two_inf_alt):
    twisted = OrderedPartition.from_blocks(
        ((1, 2, 3, 5), (4, 6, 7, 8), (9, 10, 11, 13), (12, 14, 15, 16))
    )
    data = [
        materialize_word(two_inf_alt, ShiftWord(2, 1), 1, 2),
        FiniteAutoData(1, 2, twisted),
    ]
    with pytest.raises(NotIntervalForm):
        factor_automorphism(two_inf_alt, data)


def test_factor_underdetermined_when_every_level_is_scalar():
    t = alt_tower(1, 2, 2)
    # both data start at k = 1 levels, where every partition is interval
    # form for any (s, t) split: nothing pins the word
    data = [
        FiniteAutoData(1, 2, t.embedding(1).diag),
        FiniteAutoData(1, 3, t.composite(1, 3).diag),
    ]
    with pytest.raises(UnderdeterminedWord):
        factor_automorphism(t, data)


def test_factor_needs_two_data(two_inf_alt):
    data = [materialize_word(two_inf_alt, ShiftWord(2, 1), 1, 2)]
    with pytest.raises(Exception):
        factor_automorphism(two_inf_alt, data)


def test_factor_report_shape(two_inf_alt):
    w = ShiftWord(2, 1)
    data = [materialize_word(two_inf_alt, w, m, m + 1) for m in (1, 2)]
    report = factor_report(two_inf_alt, data)
    lines = report.splitlines()
    assert lines[0] == "levels 1 2 interval s=4 t=1"
    assert lines[1] == "levels 2 3 interval s=4 t=1"
    assert lines[2] == "word 2/1"
    assert lines[3] == "status consistent"


# -- rank, isomorphism, torsion --------------------------------------------

def test_out_rank_examples(two_inf_alt):
    assert out_rank(two_inf_alt) == 1
    assert out_rank(alt_tower(1, 6, 6)) == 2
    assert out_rank(TowerSpec(1, cycle=(Descriptor("std", 2),))) == 0


def test_out_rank_counts_common_infinite_primes():
    # (s, t) = (2^inf, 2^inf), (6^inf, 6^inf), (2^inf, 3^inf), (2^inf, 2^5)
    assert out_rank(alt_tower(1, 2, 2)) == 1
    assert out_rank(alt_tower(1, 6, 6)) == 2
    assert out_rank(alt_tower(1, 2, 3)) == 0
    # a finite exponent on one side never counts
    finite_t = TowerSpec(1, preamble=(Descriptor("alt", 1, 32),), cycle=(Descriptor("std", 2),))
    assert out_rank(finite_t) == 0


def test_out_rank_requires_alternating_form():
    t = TowerSpec(
        2,
        preamble=(
            Descriptor(
                "part",
                partition=OrderedPartition.from_blocks(((1, 3), (2, 4))),
            ),
        ),
        cycle=(Descriptor("std", 2),),
    )
    with pytest.raises(NotAlternatingTower):
        out_rank(t)


def test_iso_worked_pair():
    a = TowerSpec(
        1, preamble=(Descriptor("alt", 3, 1),), cycle=(Descriptor("alt", 2, 5),)
    )
    b = TowerSpec(
        1, preamble=(Descriptor("alt", 1, 3),), cycle=(Descriptor("alt", 2, 5),)
    )
    assert alternating_iso(a, b) == Fraction(3)
    assert out_rank(a) == out_rank(b)


def test_iso_self_is_one(two_inf_alt):
    assert alternating_iso(two_inf_alt, two_inf_alt) == Fraction(1)


def test_iso_absent_when_sides_swap():
    a = alt_tower(1, 2, 3)
    b = alt_tower(1, 3, 2)
    assert alternating_iso(a, b) is None


def test_torsion_examples(two_inf_alt):
    assert torsion_check(two_inf_alt, ShiftWord(2, 1), 3) is False
    assert torsion_check(two_inf_alt, ShiftWord(2, 1), 1) is False
    for m in (1, 2, 4):
        assert torsion_check(two_inf_alt, IDENT, m) is True


def test_torsion_rejects_invalid_word(two_inf_alt):
    with pytest.raises(InvalidShiftWord):
        torsion_check(two_inf_alt, ShiftWord(3, 1), 2)


# -- tensor automorphisms ---------------------------------------------------

def test_combine_identity_reproduces_inclusion():
    phi = alt_tower(2, 2, 2)
    psi = alt_tower(1, 2, 2)
    tensor = TensorTower(phi, psi)
    for n in (1, 2):
        k_n = phi.level_dim(n)
        got = combine_tensor_autos(tensor, n, [IDENT] * k_n, IDENT)
        assert got.action == tensor.embedding(n).diag


def test_combine_uniform_block_word_is_tensor_of_word_actions():
    # one word on every block acts on the second factor as a whole, so the
    # blockwise construction must equal the tensor of the two word actions
    phi = alt_tower(2, 2, 2)
    psi = alt_tower(2, 2, 2)
    tensor = TensorTower(phi, psi)
    for n in (1, 2):
        k_n, j_n = phi.level_dim(n), psi.level_dim(n)
        for w, gamma in ((ShiftWord(2, 1), ShiftWord(1, 2)), (ShiftWord(1, 2), IDENT)):
            got = combine_tensor_autos(tensor, n, [w] * k_n, gamma).action
            g = RegularEmbedding(word_action(phi, gamma, n))
            a = RegularEmbedding(word_action(psi, w, n))
            assert (g.k_from, g.k_to) == (k_n, phi.level_dim(n + 1))
            assert (a.k_from, a.k_to) == (j_n, psi.level_dim(n + 1))
            assert got == tensor_embed(g, a).diag


def test_combine_single_block_word_moves_only_its_clopen_set():
    phi = alt_tower(2, 2, 2)
    psi = alt_tower(2, 2, 2)  # j_1 = 2 so the block sets can actually move
    tensor = TensorTower(phi, psi)
    n = 1
    k_n, j_n = phi.level_dim(n), psi.level_dim(n)
    words = [ShiftWord(2, 1)] + [IDENT] * (k_n - 1)
    got = combine_tensor_autos(tensor, n, words, IDENT).action
    emb = tensor.embedding(n).diag
    for i in range(1, k_n + 1):
        for a in range(1, j_n + 1):
            unit = (i - 1) * j_n + a
            if i == 1:
                assert got.block(unit) != emb.block(unit)
            else:
                assert got.block(unit) == emb.block(unit)


def test_combine_semidirect_exchange():
    # pushing a global word past a blockwise family permutes the family
    # along the global word's action on the clopen sets
    phi = alt_tower(2, 2, 2)
    psi = alt_tower(1, 2, 2)
    tensor = TensorTower(phi, psi)
    n = 1
    k_n = phi.level_dim(n)
    block_words = [ShiftWord(2, 1), IDENT]
    gamma = ShiftWord(1, 2)
    inner_blocks = combine_tensor_autos(tensor, n, block_words, IDENT).action
    outer_global = combine_tensor_autos(
        tensor, n + 1, [IDENT] * phi.level_dim(n + 1), gamma
    ).action
    lhs = compose(outer_global, inner_blocks)
    lifted = lift_block_words(word_action(phi, gamma, n), block_words)
    inner_global = combine_tensor_autos(tensor, n, [IDENT] * k_n, gamma).action
    outer_blocks = combine_tensor_autos(tensor, n + 1, list(lifted), IDENT).action
    assert lhs == compose(outer_blocks, inner_global)


def test_lift_block_words_follows_action_blocks():
    phi = alt_tower(2, 2, 2)
    action = word_action(phi, IDENT, 1)  # the plain inclusion, k=2 -> k=8
    words = [ShiftWord(2, 1), IDENT]
    lifted = lift_block_words(action, words)
    assert len(lifted) == 8
    # every target unit inside block i carries block i's word
    for i, block in enumerate(action.blocks):
        for unit in block:
            assert lifted[unit - 1] == words[i]


# -- dirichlet ----------------------------------------------------------------

def test_dirichlet_dimension_examples():
    assert dirichlet_dimension_check(1)
    assert dirichlet_dimension_check(4)
    assert all(dirichlet_dimension_check(k) for k in range(1, 21))


# -- persistence ---------------------------------------------------------------

def test_auto_data_round_trip(two_inf_alt):
    datum = materialize_word(two_inf_alt, ShiftWord(2, 1), 1, 2)
    text = format_auto_data([datum])
    assert text.splitlines()[0] == "levels 1 2"
    back = load_auto_data(text)
    assert list(back) == [datum]
