"""Shift automorphisms and what can be decided about an automorphism
from its finite-level projection action.

A shift word u/v names the outer class theta_u o theta_v^{-1}, where
theta_p moves one factor of p from the t-side of an alternating tower
to the s-side.  Words are tower-relative: each constituent prime must
carry exponent infinity in both supernatural coordinates, otherwise the
shift is not defined cofinally.  At a single level the action of u/v is
itself an interval pattern, I_{sr*u/v} (x) A (x) I_{tr*v/u} for the
level's ratio pair (sr, tr), which is why factorization works: detect
the interval shape (s, t) of a recorded action between levels m < m',
divide out the tower's own s-growth, and the reduced fraction is the
word.  Several level pairs must agree, making the datum self-checking.

Everything here manipulates projection actions only -- partitions of
diagonal units -- because the outer class of an automorphism is already
determined by that datum; the diagonal-unitary leftovers are handled by
the matrix lane's straightening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import embeddings, partitions
from .embeddings import (
    RegularEmbedding,
    _alternating_grid,
    _require_within_budget,
    _tensor_blocks,
    alternating,
)
from .errors import DomainError, FormatError, TuhfError
from .partitions import (
    InvalidPartition,
    OrderedPartition,
    OutOfRange,
    ShapeMismatch,
    format_partition,
    parse_partition,
)
from .supernatural import (
    factorize,
    is_prime,
    rational_pair_witness,
)
from .towers import Descriptor, NotAlternatingTower, TensorTower, TowerSpec, _ratio_product


class InvalidShiftWord(DomainError):
    """Word is not coprime/positive, or uses a prime the tower lacks."""


class PrimeNotCommonInfinite(DomainError):
    """The prime does not carry exponent infinity on both sides."""


class TowerNotNormalizedForPrime(DomainError):
    """A level ratio misses a factor the requested shift needs."""


class NotIntervalForm(DomainError):
    """A recorded action is not an I_s (x) . (x) I_t pattern."""


class InconsistentLevels(DomainError):
    """Two level pairs of the same automorphism yield different words."""


class UnderdeterminedWord(DomainError):
    """No informative level pair (k_m > 1) is available."""


@dataclass(frozen=True)
class ShiftWord:
    """Reduced positive fraction u/v naming an outer automorphism class."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if type(self.u) is not int or type(self.v) is not int:
            raise InvalidShiftWord(f"word components must be integers, got {self.u!r}/{self.v!r}")
        if self.u < 1 or self.v < 1:
            raise InvalidShiftWord(f"word components must be positive, got {self.u}/{self.v}")
        if math.gcd(self.u, self.v) != 1:
            raise InvalidShiftWord(f"word {self.u}/{self.v} is not in lowest terms")

    @classmethod
    def identity(cls) -> "ShiftWord":
        return cls(1, 1)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ShiftWord":
        if f <= 0:
            raise InvalidShiftWord(f"word must be a positive rational, got {f}")
        return cls(f.numerator, f.denominator)

    @property
    def is_identity(self) -> bool:
        return self.u == 1 and self.v == 1

    def power(self, m: int) -> "ShiftWord":
        if m < 0:
            return self.inverse().power(-m)
        return ShiftWord(self.u**m, self.v**m)

    def compose(self, other: "ShiftWord") -> "ShiftWord":
        return ShiftWord.from_fraction(
            Fraction(self.u * other.u, self.v * other.v)
        )

    def inverse(self) -> "ShiftWord":
        return ShiftWord(self.v, self.u)

    def __str__(self) -> str:
        return f"{self.u}/{self.v}"


def format_word(w: ShiftWord) -> str:
    return str(w)


def parse_word(text: str) -> ShiftWord:
    """Parse the ``u/v`` serialization."""
    num, sep, den = text.strip().partition("/")
    if not sep:
        raise FormatError(f"word must be written u/v, got {text!r}")
    try:
        return ShiftWord(int(num), int(den))
    except ValueError:
        raise FormatError(f"word components must be integers: {text!r}") from None


def common_infinite_primes(tower: TowerSpec) -> frozenset[int]:
    s, t = tower.supernatural_pair()
    return s.infinite_primes() & t.infinite_primes()


def validate_word(tower: TowerSpec, w: ShiftWord) -> None:
    """Check that every prime of the word is infinite on both sides."""
    if w.is_identity:
        return
    rest = _split_off(w.u * w.v, common_infinite_primes(tower))[1]
    if rest > 1:
        raise InvalidShiftWord(
            f"prime {min(factorize(rest))} of word {w} "
            f"is not infinite in both supernatural coordinates"
        )


def _split_off(n: int, primes: Iterable[int]) -> tuple[dict[int, int], int]:
    """The exponent in n of each of the given primes that divides it, and
    the cofactor of n free of them; no other number is factored."""
    exponents: dict[int, int] = {}
    for q in primes:
        while n % q == 0:
            exponents[q] = exponents.get(q, 0) + 1
            n //= q
    return exponents, n


@dataclass(frozen=True)
class FiniteAutoData:
    """An automorphism's projection action between two tower levels:
    block i of ``action`` is the level-m' diagonal support of the image
    of the i-th diagonal unit of level m."""

    level_from: int
    level_to: int
    action: OrderedPartition

    def __post_init__(self) -> None:
        if self.level_from < 1:
            raise OutOfRange(f"levels start at 1, got {self.level_from}")
        if self.level_to <= self.level_from:
            raise OutOfRange(
                f"level_to must exceed level_from, got {self.level_from}..{self.level_to}"
            )


def detect_interval_form(q: OrderedPartition) -> Optional[RegularEmbedding]:
    """Recognize q as the alternating pattern on its k_m blocks, if it is
    one, and return that closed-form embedding, alternating(k_m, s, t).

    The candidate is forced: t must be the length of block 1's first run
    and s the complementary cofactor; a full pattern comparison then
    accepts or rejects.  For k_m = 1 every partition trivially matches
    with (1, ground size) -- an uninformative reading that callers
    deciding words must skip.
    """
    k_m, k_n = q.block_count, q.ground_size
    gaps = np.diff(q.array[0]) != 1
    t = int(gaps.argmax()) + 1 if gaps.any() else q.block_size
    if k_n % (k_m * t):
        return None
    s = k_n // (k_m * t)
    if np.array_equal(q.array, _alternating_grid(k_m, s, t)):
        return alternating(k_m, s, t)
    return None


def word_action(tower: TowerSpec, w: ShiftWord, n: int) -> OrderedPartition:
    """The level-n action of theta_w: I_{sr*u/v} (x) A (x) I_{tr*v/u}.

    Needs v | sr and u | tr for the level's ratio pair; a normalized
    tower (see normalize_for_word) guarantees both.
    """
    r = tower.descriptor_at(n).ratios()
    if r is None:
        raise NotAlternatingTower(f"level {n} has no (s, t) ratio")
    sr, tr = r
    if sr % w.v:
        raise TowerNotNormalizedForPrime(
            f"denominator {w.v} of {w} does not divide the level-{n} s ratio {sr}"
        )
    if tr % w.u:
        raise TowerNotNormalizedForPrime(
            f"numerator {w.u} of {w} does not divide the level-{n} t ratio {tr}"
        )
    return alternating(tower.level_dim(n), sr * w.u // w.v, tr * w.v // w.u).diag


def _first_unnormalized(tower: TowerSpec, uv: int) -> Optional[tuple[int, Descriptor]]:
    """The first descriptor, with its 1-based index, whose ratio misses
    the factor uv on either side; None when uv divides them all."""
    for idx, d in enumerate(tower.preamble + tower.cycle, 1):
        r = d.ratios()
        if r is None or r[0] % uv or r[1] % uv:
            return idx, d
    return None


def normalize_for_word(tower: TowerSpec, w: ShiftWord) -> TowerSpec:
    """Regroup levels until every step ratio absorbs u*v on both sides.

    Folds the preamble into the base and merges as many cycle passes per
    step as the word's prime content requires.  The result presents the
    same limit algebra on a subsequence of the original levels, which is
    what makes per-level shift actions well defined for the word.
    """
    validate_word(tower, w)
    if w.is_identity or _first_unnormalized(tower, w.u * w.v) is None:
        return tower
    base_level = len(tower.preamble) + 1
    k0, s0, t0 = tower.level_dims(base_level)
    assert s0 is not None and t0 is not None  # alternating-form per validate_word
    cyc_s, cyc_t = _ratio_product(tower.cycle)
    fs = factorize(cyc_s)
    ft = factorize(cyc_t)
    passes = 1
    for q, e in _split_off(w.u * w.v, fs.keys() & ft.keys())[0].items():
        passes = max(passes, -(-e // fs[q]), -(-e // ft[q]))
    return TowerSpec(
        k0,
        s0,
        t0,
        (),
        (Descriptor("alt", s_mult=cyc_s**passes, t_mult=cyc_t**passes),),
    )


def _require_common_infinite_prime(tower: TowerSpec, p: int) -> None:
    # Membership first: a common infinite prime needs no primality test.
    if p in common_infinite_primes(tower):
        return
    if p < 2 or not is_prime(p):
        raise InvalidShiftWord(f"{p} is not prime")
    raise PrimeNotCommonInfinite(f"prime {p} is not infinite in both supernatural coordinates")


def normalize_for_prime(tower: TowerSpec, p: int) -> TowerSpec:
    _require_common_infinite_prime(tower, p)
    return normalize_for_word(tower, ShiftWord(p, 1))


def _first_level_over(tower: TowerSpec, bound: int, last: int) -> Optional[int]:
    """The first level in 2..last whose dimension exceeds bound, or None.
    Dimensions never shrink, so no level past that one is asked for."""
    return next((n for n in range(2, last + 1) if tower.level_dim(n) > bound), None)


def shift_auto(tower: TowerSpec, p: int, start: int, stop: int) -> Iterator[FiniteAutoData]:
    """Per-level data of the shift theta_p at levels start..stop-1.

    The tower must already be normalized for p: p divides both ratio
    components at every level, so each level's action is the pattern
    I_{p*sr} (x) A (x) I_{tr/p} and the family commutes with the tower
    embeddings.  Checks run eagerly; iteration never raises.  They
    include the materialization budget: level dimensions are walked
    upward from level 2 and the first action ground over the limit is
    refused before any level is built.  Every step multiplies k by at
    least p^2, so at the default limit the walk ends by level 13
    whatever the range.
    """
    _require_common_infinite_prime(tower, p)
    if start < 1:
        raise OutOfRange(f"levels start at 1, got {start}")
    w = ShiftWord(p, 1)
    bad = _first_unnormalized(tower, p)
    if bad is not None:
        idx, d = bad
        raise TowerNotNormalizedForPrime(
            f"descriptor {idx} ({d.kind}) lacks the factor {p} in a ratio; "
            f"normalize the tower for {p} first"
        )
    over = _first_level_over(tower, embeddings.MAX_GROUND, stop)
    if over is not None:
        k = tower.level_dim(over)
        if over > start:
            _require_within_budget(k)  # level `over` is the ground of a requested action
        raise DomainError(
            f"refusing to build a partition of more than {k} elements "
            f"(limit {embeddings.MAX_GROUND})"
        )
    return (FiniteAutoData(n, n + 1, word_action(tower, w, n)) for n in range(start, stop))


def materialize_word(tower: TowerSpec, w: ShiftWord, m: int, m_to: int) -> FiniteAutoData:
    """theta_w's recorded action between levels m < m_to.

    One application of the automorphism: the level-m action lands at
    level m+1 and the tower's own inclusions carry it the rest of the
    way.  (Composing per-level word actions instead would record
    theta_w applied m_to - m times.)
    """
    validate_word(tower, w)
    if not 1 <= m < m_to:
        raise OutOfRange(f"need 1 <= m < m_to, got {m}..{m_to}")
    acc = word_action(tower, w, m)
    if m_to > m + 1:
        acc = partitions.compose(tower.composite(m + 1, m_to).diag, acc)
    return FiniteAutoData(m, m_to, acc)


def _factor_walk(
    tower: TowerSpec, data: Sequence[FiniteAutoData]
) -> tuple[list[tuple[FiniteAutoData, Optional[RegularEmbedding]]], ShiftWord]:
    """Read each record once, in level order: check its shape against
    the tower, detect its interval form (None where k_m = 1) and derive
    the word, which every informative record must agree on.  Below a
    record's top level the tower is read no deeper than the first level
    past the record's ground, which already rules the record out."""
    if len(data) < 2:
        raise UnderdeterminedWord(
            f"need at least two level pairs for a cross-checked word, got {len(data)}"
        )
    readings: list[tuple[FiniteAutoData, Optional[RegularEmbedding]]] = []
    fractions: list[Fraction] = []
    for datum in sorted(data, key=lambda d: (d.level_from, d.level_to)):
        a, b, q = datum.level_from, datum.level_to, datum.action
        over = _first_level_over(tower, q.ground_size, b - 1)
        top = b if over is None else over
        k_m, s_m, _ = tower.level_dims(min(a, top))
        k_n, s_n, _ = tower.level_dims(top)
        if s_m is None or s_n is None:
            raise NotAlternatingTower("factorization needs s/t ratios at every level")
        shape = f"datum at levels {a}..{b} has shape {q.block_count}|{q.ground_size}"
        if over is not None:
            raise ShapeMismatch(f"{shape}, tower level {over} already has dimension {k_n}")
        if q.block_count != k_m or q.ground_size != k_n:
            raise ShapeMismatch(f"{shape}, tower expects {k_m}|{k_n}")
        if k_m == 1:
            readings.append((datum, None))
            continue
        iv = detect_interval_form(q)
        if iv is None:
            raise NotIntervalForm(f"action at levels {a}..{b} is not an interval pattern")
        readings.append((datum, iv))
        fractions.append(Fraction(iv.st[0] * s_m, s_n))
    if not fractions:
        raise UnderdeterminedWord("every datum has k_m = 1 and carries no information")
    first = fractions[0]
    for frac in fractions[1:]:
        if frac != first:
            raise InconsistentLevels(f"level pairs disagree: {first} vs {frac}")
    w = ShiftWord.from_fraction(first)
    validate_word(tower, w)
    return readings, w


def factor_automorphism(tower: TowerSpec, data: Sequence[FiniteAutoData]) -> ShiftWord:
    """Recover the shift word from recorded actions at >= 2 level pairs.

    Each informative datum (k_m > 1) must be an interval pattern; its
    detected s divided by the tower's own s-growth between the levels is
    the word, and all data must agree.  Data at k_m = 1 are skipped: a
    single block fits every interval reading.
    """
    return _factor_walk(tower, data)[1]


def factor_report(tower: TowerSpec, data: Sequence[FiniteAutoData]) -> str:
    """Human-readable factorization record: one line per level pair with
    its detected interval shape, then the word and a consistency stamp."""
    readings, w = _factor_walk(tower, data)
    lines = [
        f"levels {datum.level_from} {datum.level_to} "
        + ("uninformative (k = 1)" if iv is None else "interval s={} t={}".format(*iv.st))
        for datum, iv in readings
    ]
    lines.append(f"word {w}")
    lines.append("status consistent")
    return "\n".join(lines) + "\n"


def out_rank(tower: TowerSpec) -> int:
    """Rank of the outer automorphism group: the number of primes
    infinite in both supernatural coordinates."""
    return len(common_infinite_primes(tower))


def alternating_iso(a: TowerSpec, b: TowerSpec) -> Optional[Fraction]:
    """Rational witness r with (s_a, t_a) = (r * s_b, t_b / r), if any."""
    s_a, t_a = a.supernatural_pair()
    s_b, t_b = b.supernatural_pair()
    return rational_pair_witness(s_a, t_a, s_b, t_b)


def torsion_check(tower: TowerSpec, w: ShiftWord, m: int) -> bool:
    """Whether theta_w^m is the identity outer class.

    The word arithmetic answers directly (u^m = v^m = 1 forces u = v =
    1); a finite-level cross-check then composes m per-level actions on
    a tower normalized for the word and compares against the tower's own
    composite, starting from the first level with more than one block so
    the comparison has content.
    """
    validate_word(tower, w)
    if m < 1:
        raise OutOfRange(f"power must be >= 1, got {m}")
    verdict = w.power(m).is_identity
    nt = normalize_for_word(tower, w)
    base = 1 if nt.level_dim(1) > 1 else 2
    acc = word_action(nt, w, base)
    for n in range(base + 1, base + m):
        acc = partitions.compose(word_action(nt, w, n), acc)
    finite = acc == nt.composite(base, base + m).diag
    if finite != verdict:
        raise TuhfError(
            "finite-level torsion cross-check disagrees with the word arithmetic"
        )
    return verdict


def lift_block_words(
    parent: OrderedPartition, words: Sequence[ShiftWord]
) -> tuple[ShiftWord, ...]:
    """Push a per-block word family one level deeper: each child block
    inherits the word of the parent block containing it."""
    if len(words) != parent.block_count:
        raise ShapeMismatch(
            f"{parent.block_count} blocks need {parent.block_count} words, got {len(words)}"
        )
    return tuple(words[i - 1] for i in parent.assignment())


def combine_tensor_autos(
    tensor: TensorTower,
    n: int,
    block_words: Sequence[ShiftWord],
    global_word: ShiftWord,
) -> FiniteAutoData:
    """Level-n action of a blockwise automorphism of a tensor tower.

    Inside the clopen set of the i-th diagonal unit of the first factor,
    the i-th word acts on second-factor coordinates; the global word
    acts on first-factor coordinates afterwards.  With every word the
    identity this reproduces the tensor tower's own level embedding.
    """
    k_n = tensor.phi.level_dim(n)
    if len(block_words) != k_n:
        raise ShapeMismatch(
            f"level {n} has {k_n} first-factor units, got {len(block_words)} words"
        )
    validate_word(tensor.phi, global_word)
    g_action = word_action(tensor.phi, global_word, n)
    actions: dict[ShiftWord, OrderedPartition] = {}
    for w in block_words:
        if w not in actions:
            validate_word(tensor.psi, w)
            actions[w] = word_action(tensor.psi, w, n)
    return FiniteAutoData(
        n, n + 1, _tensor_blocks(g_action, [actions[w] for w in block_words])
    )


def dirichlet_dimension_check(k: int) -> bool:
    """Upper plus lower triangular dimensions overcount the diagonal
    once and must tile the full matrix algebra: 2*dim(T_k) - k = k^2."""
    if k < 1:
        raise OutOfRange(f"dimension must be >= 1, got {k}")
    upper = k * (k + 1) // 2
    return 2 * upper - k == k * k


# -- auto-data text form ------------------------------------------------

def format_auto_data(data: Sequence[FiniteAutoData]) -> str:
    lines: list[str] = []
    for datum in data:
        lines.append(f"levels {datum.level_from} {datum.level_to}")
        lines.append(f"action {format_partition(datum.action)}")
    return "\n".join(lines) + "\n"


def load_auto_data(text: str) -> tuple[FiniteAutoData, ...]:
    records: list[FiniteAutoData] = []
    pending: Optional[tuple[int, int]] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "levels":
            if pending is not None:
                raise FormatError(f"line {lineno}: levels line without an action")
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: levels needs two integers")
            try:
                pending = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise FormatError(f"line {lineno}: levels needs two integers") from None
        elif head == "action":
            if pending is None:
                raise FormatError(f"line {lineno}: action line without levels")
            try:
                p = parse_partition(rest)
            except InvalidPartition as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            try:
                records.append(FiniteAutoData(pending[0], pending[1], p))
            except OutOfRange as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            pending = None
        else:
            raise FormatError(f"line {lineno}: unknown directive {head!r}")
    if pending is not None:
        raise FormatError("dangling levels line at end of input")
    if not records:
        raise FormatError("no auto-data records found")
    return tuple(records)
