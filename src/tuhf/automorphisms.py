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
from typing import Iterator, Optional, Sequence

from . import partitions
from .embeddings import alternating
from .errors import DomainError, FormatError, TuhfError
from .partitions import (
    InvalidPartition,
    OrderedPartition,
    OutOfRange,
    ShapeMismatch,
    format_partition,
    parse_partition,
    runs_of,
)
from .supernatural import (
    common_infinite_count,
    factorize,
    is_prime,
    rational_pair_witness,
)
from .towers import Descriptor, NotAlternatingTower, TensorTower, TowerSpec


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

    def __init__(self, expected: str, got: str) -> None:
        self.expected = expected
        self.got = got
        super().__init__(f"level pairs disagree: {expected} vs {got}")


class UnderdeterminedWord(DomainError):
    """No informative level pair (k_m > 1) is available."""


@dataclass(frozen=True)
class ShiftWord:
    """Reduced positive fraction u/v naming an outer automorphism class."""

    u: int
    v: int

    def __post_init__(self) -> None:
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
    common = common_infinite_primes(tower)
    for q in factorize(w.u * w.v):
        if q not in common:
            raise InvalidShiftWord(
                f"prime {q} of word {w} is not infinite in both supernatural coordinates"
            )


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


@dataclass(frozen=True)
class IntervalForm:
    """The (s, t) of an I_s (x) . (x) I_t diagonal pattern."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.t < 1:
            raise OutOfRange(f"interval multiplicities must be >= 1, got ({self.s},{self.t})")


def detect_interval_form(q: OrderedPartition, k_m: int) -> Optional[IntervalForm]:
    """Recognize q as the alternating pattern on k_m blocks, if it is one.

    The candidate is forced: t must be the length of block 1's first run
    and s the complementary cofactor; a full pattern comparison then
    accepts or rejects.  For k_m = 1 every partition trivially matches
    with (1, ground size) -- an uninformative reading that callers
    deciding words must skip.
    """
    if q.block_count != k_m:
        raise ShapeMismatch(f"expected {k_m} blocks, got {q.block_count}")
    k_n = q.ground_size
    t = runs_of(q.block(1))[0].size
    if k_n % (k_m * t):
        return None
    s = k_n // (k_m * t)
    if alternating(k_m, s, t).diag == q:
        return IntervalForm(s, t)
    return None


def word_action(tower: TowerSpec, w: ShiftWord, n: int) -> OrderedPartition:
    """The level-n action of theta_w: I_{sr*u/v} (x) A (x) I_{tr*v/u}.

    Needs v | sr and u | tr for the level's ratio pair; a normalized
    tower (see normalize_for_word) guarantees both.
    """
    r = tower.ratio_at(n)
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


def is_normalized_for_word(tower: TowerSpec, w: ShiftWord) -> bool:
    """Whether u*v divides both ratio components at every level."""
    uv = w.u * w.v
    for d in tower.preamble + tower.cycle:
        r = d.ratios()
        if r is None:
            return False
        if r[0] % uv or r[1] % uv:
            return False
    return True


def normalize_for_word(tower: TowerSpec, w: ShiftWord) -> TowerSpec:
    """Regroup levels until every step ratio absorbs u*v on both sides.

    Folds the preamble into the base and merges as many cycle passes per
    step as the word's prime content requires.  The result presents the
    same limit algebra on a subsequence of the original levels, which is
    what makes per-level shift actions well defined for the word.
    """
    validate_word(tower, w)
    if w.is_identity or is_normalized_for_word(tower, w):
        return tower
    base_level = len(tower.preamble) + 1
    k0, s0, t0 = tower.level_dims(base_level)
    assert s0 is not None and t0 is not None  # alternating-form per validate_word
    cyc_s = cyc_t = 1
    for d in tower.cycle:
        rs, rt = d.ratios()  # type: ignore[misc]
        cyc_s *= rs
        cyc_t *= rt
    fs = factorize(cyc_s)
    ft = factorize(cyc_t)
    passes = 1
    for q, e in factorize(w.u * w.v).items():
        passes = max(passes, -(-e // fs[q]), -(-e // ft[q]))
    return TowerSpec(
        k0,
        s0,
        t0,
        (),
        (Descriptor("alt", s_mult=cyc_s**passes, t_mult=cyc_t**passes),),
    )


def _require_common_infinite_prime(tower: TowerSpec, p: int) -> None:
    if p < 2 or not is_prime(p):
        raise InvalidShiftWord(f"{p} is not prime")
    if p not in common_infinite_primes(tower):
        raise PrimeNotCommonInfinite(
            f"prime {p} is not infinite in both supernatural coordinates"
        )


def normalize_for_prime(tower: TowerSpec, p: int) -> TowerSpec:
    _require_common_infinite_prime(tower, p)
    return normalize_for_word(tower, ShiftWord(p, 1))


def shift_auto(tower: TowerSpec, p: int, start: int = 1) -> Iterator[FiniteAutoData]:
    """Per-level data of the shift theta_p, level ``start`` upward.

    The tower must already be normalized for p: p divides both ratio
    components at every level, so each level's action is the pattern
    I_{p*sr} (x) A (x) I_{tr/p} and the family commutes with the tower
    embeddings.  Checks run eagerly; iteration never raises.
    """
    _require_common_infinite_prime(tower, p)
    if start < 1:
        raise OutOfRange(f"levels start at 1, got {start}")
    w = ShiftWord(p, 1)
    for idx, d in enumerate(tower.preamble + tower.cycle, 1):
        r = d.ratios()
        if r is None or r[0] % p or r[1] % p:
            raise TowerNotNormalizedForPrime(
                f"descriptor {idx} ({d.kind}) lacks the factor {p} in a ratio; "
                f"normalize the tower for {p} first"
            )

    def walk() -> Iterator[FiniteAutoData]:
        n = start
        while True:
            yield FiniteAutoData(n, n + 1, word_action(tower, w, n))
            n += 1

    return walk()


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


def factor_automorphism(tower: TowerSpec, data: Sequence[FiniteAutoData]) -> ShiftWord:
    """Recover the shift word from recorded actions at >= 2 level pairs.

    Each informative datum (k_m > 1) must be an interval pattern; its
    detected s divided by the tower's own s-growth between the levels is
    the word, and all data must agree.  Data at k_m = 1 are skipped: a
    single block fits every interval reading.
    """
    if len(data) < 2:
        raise UnderdeterminedWord(
            f"need at least two level pairs for a cross-checked word, got {len(data)}"
        )
    fractions: list[Fraction] = []
    for datum in sorted(data, key=lambda d: (d.level_from, d.level_to)):
        k_m, s_m, _ = tower.level_dims(datum.level_from)
        k_n, s_n, _ = tower.level_dims(datum.level_to)
        if s_m is None or s_n is None:
            raise NotAlternatingTower("factorization needs s/t ratios at every level")
        if datum.action.block_count != k_m or datum.action.ground_size != k_n:
            raise ShapeMismatch(
                f"datum at levels {datum.level_from}..{datum.level_to} has shape "
                f"{datum.action.block_count}|{datum.action.ground_size}, "
                f"tower expects {k_m}|{k_n}"
            )
        if k_m == 1:
            continue
        iv = detect_interval_form(datum.action, k_m)
        if iv is None:
            raise NotIntervalForm(
                f"action at levels {datum.level_from}..{datum.level_to} "
                f"is not an interval pattern"
            )
        fractions.append(Fraction(iv.s * s_m, s_n))
    if not fractions:
        raise UnderdeterminedWord("every datum has k_m = 1 and carries no information")
    first = fractions[0]
    for frac in fractions[1:]:
        if frac != first:
            raise InconsistentLevels(str(first), str(frac))
    w = ShiftWord.from_fraction(first)
    validate_word(tower, w)
    return w


def factor_report(tower: TowerSpec, data: Sequence[FiniteAutoData]) -> str:
    """Human-readable factorization record: one line per level pair with
    its detected interval shape, then the word and a consistency stamp."""
    lines: list[str] = []
    for datum in sorted(data, key=lambda d: (d.level_from, d.level_to)):
        k_m = tower.level_dim(datum.level_from)
        if k_m == 1:
            lines.append(
                f"levels {datum.level_from} {datum.level_to} uninformative (k = 1)"
            )
            continue
        iv = detect_interval_form(datum.action, k_m)
        shape = "not interval form" if iv is None else f"interval s={iv.s} t={iv.t}"
        lines.append(f"levels {datum.level_from} {datum.level_to} {shape}")
    w = factor_automorphism(tower, data)
    lines.append(f"word {w}")
    lines.append("status consistent")
    return "\n".join(lines) + "\n"


def out_rank(tower: TowerSpec) -> int:
    """Rank of the outer automorphism group: the number of primes
    infinite in both supernatural coordinates."""
    return common_infinite_count(*tower.supernatural_pair())


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
    out: list[Optional[ShiftWord]] = [None] * parent.ground_size
    for i in range(1, parent.block_count + 1):
        for x in parent.block(i):
            out[x - 1] = words[i - 1]
    return tuple(out)  # type: ignore[arg-type]


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
    j_n = tensor.psi.level_dim(n)
    j_to = tensor.psi.level_dim(n + 1)
    if len(block_words) != k_n:
        raise ShapeMismatch(
            f"level {n} has {k_n} first-factor units, got {len(block_words)} words"
        )
    validate_word(tensor.phi, global_word)
    g_action = word_action(tensor.phi, global_word, n)
    cache: dict[tuple[int, int], OrderedPartition] = {}
    for w in block_words:
        key = (w.u, w.v)
        if key not in cache:
            validate_word(tensor.psi, w)
            cache[key] = word_action(tensor.psi, w, n)
    blocks: list[tuple[int, ...]] = []
    for i in range(1, k_n + 1):
        g_block = g_action.block(i)
        w_action = cache[(block_words[i - 1].u, block_words[i - 1].v)]
        for a in range(1, j_n + 1):
            w_block = w_action.block(a)
            blocks.append(
                tuple(sorted((i2 - 1) * j_to + b for i2 in g_block for b in w_block))
            )
    return FiniteAutoData(n, n + 1, OrderedPartition(tuple(blocks)))


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
