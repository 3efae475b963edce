"""Prime-exponent maps with infinite exponents and the rational witness."""

from fractions import Fraction

import pytest

from tuhf import (
    INF,
    DomainError,
    SupernaturalNumber,
    common_infinite_count,
    factorize,
    is_prime,
    multiply,
    rational_pair_witness,
)
from tuhf.supernatural import DuplicatePrime, MalformedLiteral, NonPrimeBase

S = SupernaturalNumber.from_dict


def test_is_prime_small_range():
    primes_below_30 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-2, 30):
        assert is_prime(n) == (n in primes_below_30)


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_trial_division_stops_at_its_limit():
    # every number below TRIAL_LIMIT**2 = 10^12 is still factored exactly
    assert factorize(999983**2) == {999983: 2}
    assert factorize(999999999989) == {999999999989: 1}
    # past it a number with no factor up to the limit is refused
    for fn in (factorize, is_prime):
        with pytest.raises(DomainError, match=r"by trial division up to 1000000$"):
            fn(1000003**2)
    assert is_prime(3 * 1000003**2) is False


def test_factorize_reconstructs():
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(Exception):
        factorize(0)


def test_multiply_matches_integers():
    a = SupernaturalNumber.from_int(6)
    b = SupernaturalNumber.from_int(10)
    assert multiply(a, b) == SupernaturalNumber.from_int(60)


def test_infinite_exponent_absorbs():
    # 2^3 * 2^inf = 2^inf: adding anything to inf stays inf
    assert S({2: 3}) * S({2: INF}) == S({2: INF})
    assert S({2: INF}) * S({2: INF}) == S({2: INF})


def test_exponent_zero_drops_prime():
    assert S({2: 0, 3: 1}) == S({3: 1})
    assert S({2: 0}).is_one()


def test_parse_format_round_trip():
    for text in ("1", "2", "2^inf", "2^3*5", "2^inf*3*7^2"):
        n = SupernaturalNumber.parse(text)
        assert n.format() == text
        assert SupernaturalNumber.parse(n.format()) == n


def test_parse_rejects_bad_literals():
    with pytest.raises(NonPrimeBase):
        SupernaturalNumber.parse("4^2")
    with pytest.raises(DuplicatePrime):
        SupernaturalNumber.parse("2^2*2^3")
    with pytest.raises(MalformedLiteral):
        SupernaturalNumber.parse("2^")
    with pytest.raises(MalformedLiteral):
        SupernaturalNumber.parse("")


def test_queries():
    n = S({2: INF, 3: 2})
    assert n.exponent(2) is INF
    assert n.exponent(3) == 2
    assert n.exponent(5) == 0
    assert n.support() == (2, 3)
    assert n.infinite_primes() == frozenset({2})


def test_common_infinite_count():
    assert common_infinite_count(S({2: INF}), S({2: INF})) == 1
    assert common_infinite_count(S({2: INF, 3: INF}), S({2: INF, 3: INF})) == 2
    assert common_infinite_count(S({2: INF}), S({3: INF})) == 0
    # a finite exponent on one side never counts
    assert common_infinite_count(S({2: INF}), S({2: 5})) == 0


def test_witness_worked_pair():
    # sides (3*2^inf, 5^inf) vs (2^inf, 3*5^inf): moving the finite 3
    # across the pair is witnessed by r = 3
    r = rational_pair_witness(
        S({3: 1, 2: INF}), S({5: INF}), S({2: INF}), S({3: 1, 5: INF})
    )
    assert r == Fraction(3)


def test_witness_identity():
    s, t = S({2: INF}), S({5: 2})
    assert rational_pair_witness(s, t, s, t) == Fraction(1)


def test_witness_absent_when_infinite_sets_swap():
    assert (
        rational_pair_witness(S({2: INF}), S({3: INF}), S({3: INF}), S({2: INF}))
        is None
    )


def test_witness_requires_both_equations():
    # s-side asks for r = 2 and t-side for r = 1/2: no single rational fits
    assert rational_pair_witness(S({2: 1}), S({2: 1}), S({}), S({})) is None
    # consistent case: s_a = 2*s_b and t_b = 2*t_a
    assert rational_pair_witness(S({2: 1}), S({}), S({}), S({2: 1})) == Fraction(2)


def test_witness_denominator():
    assert rational_pair_witness(S({}), S({3: 1}), S({3: 1}), S({})) == Fraction(1, 3)
