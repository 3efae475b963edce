"""Exact arithmetic on supernatural numbers (generalized integers).

A supernatural number is a formal product  prod_p p^(e_p)  over primes
with exponents in N ∪ {inf}.  The dimension growth of an embedding
tower is of this kind: a prime dividing infinitely many of the tower's
ratios carries exponent inf.  A tower presented by a finite preamble
and a repeating cycle can only generate finitely many primes, so finite
support is not a restriction here.

Values are immutable and canonical: primes sorted ascending, no zero
exponents stored.  ``INF`` is a distinguished absorbing symbol, not a
large sentinel integer, so ``INF + e is INF`` holds structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping, Optional, Union

from .errors import DomainError, FormatError


class _Infinity:
    """Absorbing exponent symbol; a singleton compared by identity."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __hash__(self) -> int:
        return hash("supernatural-inf")


INF = _Infinity()

Exponent = Union[int, _Infinity]


class NonPrimeBase(FormatError):
    """A factor base in a supernatural literal is not prime."""


class MalformedLiteral(FormatError):
    """A supernatural literal does not match the term grammar."""


class DuplicatePrime(FormatError):
    """The same prime occurs twice in a supernatural literal."""


# Trial division stops at this divisor, which still factors every
# number below TRIAL_LIMIT**2 = 10^12 exactly; past it a number that is
# not yet split is refused rather than divided on without bound.
TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    root = isqrt(n)
    for d in range(3, min(root, TRIAL_LIMIT) + 1, 2):
        if n % d == 0:
            return False
    if root > TRIAL_LIMIT:
        raise DomainError(
            f"cannot decide whether {n} is prime by trial division up to {TRIAL_LIMIT}"
        )
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to TRIAL_LIMIT."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    whole = n
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise DomainError(f"cannot factor {whole} by trial division up to {TRIAL_LIMIT}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_TERM = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


@dataclass(frozen=True)
class SupernaturalNumber:
    """Canonical prime -> exponent map, exponents in N>=1 ∪ {INF}."""

    factors: tuple[tuple[int, Exponent], ...] = ()

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if not is_prime(p):
                raise NonPrimeBase(f"{p} is not prime")
            if p <= last:
                raise MalformedLiteral("primes must be strictly ascending")
            if e is not INF and (not isinstance(e, int) or e < 1):
                raise MalformedLiteral(f"bad exponent {e!r} for prime {p}")
            last = p

    # -- construction ------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[int, Exponent]) -> "SupernaturalNumber":
        kept = [(p, e) for p, e in d.items() if e is INF or e != 0]
        kept.sort(key=lambda pe: pe[0])
        return cls(tuple(kept))

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        if n < 1:
            raise ValueError(f"{n} has no prime factorization")
        return cls.from_dict(factorize(n)) if n > 1 else cls()

    @classmethod
    def parse(cls, text: str) -> "SupernaturalNumber":
        """Parse ``term ("*" term)*`` with term ``p``, ``p^e`` or ``p^inf``.

        The empty product is written ``1``; an exponent of 0 drops the
        prime from the support.
        """
        body = text.strip()
        if body == "1":
            return cls()
        if not body:
            raise MalformedLiteral("empty literal")
        seen: dict[int, Exponent] = {}
        for raw_term in body.split("*"):
            m = _TERM.match(raw_term.strip())
            if m is None:
                raise MalformedLiteral(f"bad term {raw_term.strip()!r}")
            base = int(m.group(1))
            if not is_prime(base):
                raise NonPrimeBase(f"{base} is not prime")
            if base in seen:
                raise DuplicatePrime(f"prime {base} repeated")
            raw_exp = m.group(2)
            exp: Exponent = 1 if raw_exp is None else (INF if raw_exp == "inf" else int(raw_exp))
            seen[base] = exp
        return cls.from_dict(seen)

    # -- queries -----------------------------------------------------

    def exponent(self, p: int) -> Exponent:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def infinite_primes(self) -> frozenset[int]:
        return frozenset(p for p, e in self.factors if e is INF)

    def is_one(self) -> bool:
        return not self.factors

    # -- arithmetic and formatting ------------------------------------

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        acc: dict[int, Exponent] = dict(self.factors)
        for p, e in other.factors:
            acc[p] = acc.get(p, 0) + e
        return SupernaturalNumber.from_dict(acc)

    def format(self) -> str:
        if not self.factors:
            return "1"
        terms = []
        for p, e in self.factors:
            if e is INF:
                terms.append(f"{p}^inf")
            elif e == 1:
                terms.append(str(p))
            else:
                terms.append(f"{p}^{e}")
        return "*".join(terms)

    def __str__(self) -> str:
        return self.format()


def multiply(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    return a * b


def common_infinite_count(s: SupernaturalNumber, t: SupernaturalNumber) -> int:
    """Number of primes carrying exponent inf in both arguments."""
    return len(s.infinite_primes() & t.infinite_primes())


def rational_pair_witness(
    s_a: SupernaturalNumber,
    t_a: SupernaturalNumber,
    s_b: SupernaturalNumber,
    t_b: SupernaturalNumber,
) -> Optional[Fraction]:
    """Positive rational r with s_a = r * s_b and t_a = (1/r) * t_b, if any.

    Per prime the two equations constrain r's exponent independently:
    a finite/finite pair pins it to the exponent difference, a mixed
    finite/inf pair is unsatisfiable (no finite rational bridges inf),
    and an inf/inf pair is unconstrained.  Unconstrained primes take
    exponent 0, which keeps the witness canonical.
    """
    primes = sorted(
        set(s_a.support()) | set(s_b.support()) | set(t_a.support()) | set(t_b.support())
    )
    r = Fraction(1)
    for p in primes:
        wanted: list[int] = []
        # s_a = r * s_b and t_b = r * t_a: each side pins r's exponent
        for x, y in ((s_a, s_b), (t_b, t_a)):
            ex, ey = x.exponent(p), y.exponent(p)
            if (ex is INF) != (ey is INF):
                return None
            if ex is not INF:
                wanted.append(ex - ey)
        if not wanted:
            continue
        if len(wanted) == 2 and wanted[0] != wanted[1]:
            return None
        r *= Fraction(p) ** wanted[0]
    return r
