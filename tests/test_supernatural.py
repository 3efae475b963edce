"""Prime-exponent maps with infinite exponents and the rational witness."""

from fractions import Fraction
from math import isqrt

import pytest

from tuhf import (
    INF,
    DomainError,
    SupernaturalNumber,
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
    # the bound is on the cofactor left once the small factors are out
    assert factorize(10**12 + 39) == {10**12 + 39: 1} and is_prime(10**12 + 39)
    assert factorize(2 * 1000003) == {2: 1, 1000003: 1}
    assert factorize(2**80) == {2: 80} and not is_prime(2**80)
    big = 10000000000037
    assert is_prime(3 * big) is False
    with pytest.raises(DomainError, match=rf"^cannot factor {3 * big} by trial division"):
        factorize(3 * big)
    with pytest.raises(DomainError, match=rf"^cannot decide whether {big} is prime by trial"):
        is_prime(big)


def test_trial_division_agrees_with_a_sieve():
    # least prime factors by the sieve of Eratosthenes, below 10^5
    bound = 10**5
    least = list(range(bound))
    for p in range(2, isqrt(bound) + 1):
        if least[p] == p:
            for q in range(p * p, bound, p):
                if least[q] == q:
                    least[q] = p
    for n in range(-3, bound):
        assert is_prime(n) == (n >= 2 and least[n] == n), n
    for n in range(1, bound):
        expected: dict[int, int] = {}
        rest = n
        while rest > 1:
            expected[least[rest]] = expected.get(least[rest], 0) + 1
            rest //= least[rest]
        assert factorize(n) == expected, n


def test_factorize_reconstructs():
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_rejects_nonpositive():
    # a library error, like every other refusal
    with pytest.raises(DomainError) as exc:
        factorize(0)
    assert type(exc.value) is DomainError and str(exc.value) == "cannot factor 0"
    with pytest.raises(DomainError) as exc:
        SupernaturalNumber.from_int(0)
    assert type(exc.value) is DomainError and str(exc.value) == "0 has no prime factorization"


def test_multiply_matches_integers():
    a = SupernaturalNumber.from_int(6)
    b = SupernaturalNumber.from_int(10)
    assert multiply(a, b) == SupernaturalNumber.from_int(60)
    with pytest.raises(TypeError):
        SupernaturalNumber() * 5  # a product takes two supernatural numbers


def test_infinite_exponent_absorbs():
    # 2^3 * 2^inf = 2^inf: adding anything to inf stays inf
    assert S({2: 3}) * S({2: INF}) == S({2: INF})
    assert S({2: INF}) * S({2: INF}) == S({2: INF})


def test_inf_is_the_float_infinity():
    assert INF == float("inf") and INF + 7 == INF and 7 + INF == INF
    n = SupernaturalNumber.parse("2^inf*3^2")
    assert n.factors == ((2, INF), (3, 2)) and n.format() == "2^inf*3^2"
    assert SupernaturalNumber.parse(n.format()) == n
    assert S({2: INF, 3: 0}).factors == ((2, INF),)
    assert S({2: float("inf")}) == S({2: INF})
    for bad in (1.5, 2.0, float("nan"), -INF):
        with pytest.raises(MalformedLiteral, match="bad exponent"):
            S({2: bad})


def test_exponent_zero_drops_prime():
    assert S({2: 0, 3: 1}) == S({3: 1})
    assert S({2: 0}) == SupernaturalNumber()


def test_parse_format_round_trip():
    for text in ("1", "2", "2^inf", "2^3*5", "2^inf*3*7^2"):
        n = SupernaturalNumber.parse(text)
        assert n.format() == text
        assert SupernaturalNumber.parse(n.format()) == n


@pytest.mark.parametrize(
    "factors, error, message",
    [
        (((4, 1),), NonPrimeBase, "4 is not prime"),
        (((3, 1), (2, 1)), MalformedLiteral, "primes must be strictly ascending"),
    ],
    ids=["non-prime", "descending"],
)
def test_constructor_checks(factors, error, message):
    with pytest.raises(error) as exc:
        SupernaturalNumber(factors)
    assert type(exc.value) is error and str(exc.value) == message


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
