"""Tower specifications: a base dimension, a finite preamble of
embedding descriptors, and a cycle of descriptors repeated forever.

A tower presents a nested union T_{k_1} -> T_{k_2} -> ... with one
regular embedding per level.  The finite presentation (preamble plus
cycle) is what makes the limit data exactly computable: a prime
appearing in a cycle ratio divides the corresponding side infinitely
often, so the pair of supernatural numbers attached to an
alternating-form tower has a finite description with explicit infinite
exponents.

Every level dimension k_n is an exact Python integer; cycles grow the
dimensions exponentially and nothing here truncates them.

File grammar (line oriented, ``#`` starts a comment)::

    k1 <int>
    s1 <int>          # optional declared split of k1, s1*t1 = k1
    t1 <int>          # optional; defaults are (1, k1), the pure-nest convention
    preamble <descriptor>     # zero or more, in order
    cycle <descriptor>        # one or more, in order

Descriptors: ``std <mult>``, ``nest <mult>``, ``alt <s> <t>``,
``part <k_to> <partition serialization>``; the text after ``k_to`` goes
to ``parse_partition`` as written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import supernatural
from .embeddings import (
    RegularEmbedding,
    alternating,
    compose_embeddings,
    identity_embedding,
    tensor_embed,
)
from .errors import DomainError, FormatError, _content_lines
from .partitions import (
    InvalidPartition,
    OrderedPartition,
    OutOfRange,
    format_partition,
    np,
    parse_partition,
)
from .supernatural import INF, SupernaturalNumber


class ParseError(FormatError):
    """Malformed tower file."""


class InvalidDescriptor(FormatError):
    """A descriptor that does not match any of the four known forms."""


class ChainMismatch(DomainError):
    """Adjacent levels of a tower do not chain dimensionally."""


class NotAlternatingTower(DomainError):
    """Operation needs every descriptor to carry an (s, t) ratio."""


_KINDS = ("std", "nest", "alt", "part")


@dataclass(frozen=True)
class Descriptor:
    """One level's embedding recipe.

    ``std``/``nest`` keep their multiplicity in the matching slot of
    (s_mult, t_mult) with 1 in the other, so ``ratios()`` is uniform for
    the three alternating-form kinds; ``part`` holds an explicit
    partition and has no ratio.
    """

    kind: str
    s_mult: int = 1
    t_mult: int = 1
    partition: Optional[OrderedPartition] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidDescriptor(f"unknown descriptor kind {self.kind!r}")
        if type(self.s_mult) is not int or type(self.t_mult) is not int:
            raise InvalidDescriptor(
                f"multiplicities must be integers, got {self.s_mult!r}, {self.t_mult!r}"
            )
        if self.s_mult < 1 or self.t_mult < 1:
            raise InvalidDescriptor(
                f"multiplicities must be >= 1, got {self.s_mult}, {self.t_mult}"
            )
        if self.kind == "part":
            if self.partition is None:
                raise InvalidDescriptor("part descriptor needs a partition")
            if (self.s_mult, self.t_mult) != (1, 1):
                raise InvalidDescriptor("part descriptor carries no multiplicities")
        else:
            if self.partition is not None:
                raise InvalidDescriptor(f"{self.kind} descriptor carries no partition")
            if self.kind == "std" and self.t_mult != 1:
                raise InvalidDescriptor("std descriptor has t multiplicity 1")
            if self.kind == "nest" and self.s_mult != 1:
                raise InvalidDescriptor("nest descriptor has s multiplicity 1")

    def ratios(self) -> Optional[tuple[int, int]]:
        """(s, t) multiplicities, or None for an explicit-partition level."""
        if self.kind == "part":
            return None
        return (self.s_mult, self.t_mult)

    @property
    def multiplicity(self) -> int:
        """k_{n+1} / k_n: s*t, or the block size of a part descriptor."""
        p = self.partition
        return self.s_mult * self.t_mult if p is None else p.block_size

    def k_to(self, k_from: int) -> int:
        p = self.partition
        if p is not None and p.block_count != k_from:
            raise ChainMismatch(f"part descriptor expects k={p.block_count}, got {k_from}")
        return k_from * self.multiplicity

    def embedding(self, k_from: int) -> RegularEmbedding:
        """The level embedding; closed alternating form for every kind but ``part``."""
        if self.partition is None:
            return alternating(k_from, self.s_mult, self.t_mult)
        self.k_to(k_from)  # refuses a partition that does not chain
        return RegularEmbedding(self.partition)


# A row of ``TowerSpec._steps``: (multiplicity, t, grid).
_Step = tuple[int, Optional[int], Optional["np.ndarray"]]


def parse_descriptor(text: str) -> Descriptor:
    tokens = text.split()
    if not tokens:
        raise InvalidDescriptor("empty descriptor")
    kind = tokens[0]
    try:
        if kind == "std":
            if len(tokens) != 2:
                raise InvalidDescriptor(f"std takes one multiplicity: {text!r}")
            return Descriptor("std", s_mult=int(tokens[1]))
        if kind == "nest":
            if len(tokens) != 2:
                raise InvalidDescriptor(f"nest takes one multiplicity: {text!r}")
            return Descriptor("nest", t_mult=int(tokens[1]))
        if kind == "alt":
            if len(tokens) != 3:
                raise InvalidDescriptor(f"alt takes two multiplicities: {text!r}")
            return Descriptor("alt", s_mult=int(tokens[1]), t_mult=int(tokens[2]))
        if kind == "part":
            if len(tokens) < 3:
                raise InvalidDescriptor(f"part takes a size and a partition: {text!r}")
            k_to = int(tokens[1])
            try:
                p = parse_partition(text.split(None, 2)[2])
            except (InvalidPartition, FormatError) as exc:
                raise InvalidDescriptor(f"bad partition in descriptor: {exc}") from None
            if p.ground_size != k_to:
                raise InvalidDescriptor(
                    f"declared size {k_to} does not match partition ground {p.ground_size}"
                )
            return Descriptor("part", partition=p)
    except ValueError:
        raise InvalidDescriptor(f"non-integer multiplicity in {text!r}") from None
    raise InvalidDescriptor(f"unknown descriptor kind {kind!r}")


def format_descriptor(d: Descriptor) -> str:
    if d.kind == "std":
        return f"std {d.s_mult}"
    if d.kind == "nest":
        return f"nest {d.t_mult}"
    if d.kind == "alt":
        return f"alt {d.s_mult} {d.t_mult}"
    assert d.partition is not None
    return f"part {d.partition.ground_size} {format_partition(d.partition)}"


def _ratio_product(descriptors: tuple[Descriptor, ...]) -> tuple[int, int]:
    """Products of the s and of the t ratios of alternating-form descriptors."""
    s = t = 1
    for d in descriptors:
        rs, rt = d.ratios()  # type: ignore[misc]
        s *= rs
        t *= rt
    return s, t


@dataclass(frozen=True)
class TowerSpec:
    """Base dimension with its declared (s1, t1) split, preamble, cycle.

    An omitted side of the split defaults to the cofactor of the other
    in k1, and an omitted split to (1, k1).  Level data (k_n, s_n, t_n)
    are memoized in one table that grows on demand, so per-level queries
    cost amortized O(1), the supernatural pair is kept once found, and
    the Gelfand walk's step rows are built once (``_steps``); none of
    them takes part in equality, hash or repr.
    """

    k1: int
    s1: Optional[int] = None
    t1: Optional[int] = None
    preamble: tuple[Descriptor, ...] = ()
    cycle: tuple[Descriptor, ...] = ()
    _levels: list[tuple[int, Optional[int], Optional[int]]] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    _pair: Optional[tuple[SupernaturalNumber, SupernaturalNumber]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "preamble", tuple(self.preamble))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        for name, v in (("k1", self.k1), ("s1", self.s1), ("t1", self.t1)):
            if type(v) is not int and (v is not None or name == "k1"):
                raise ChainMismatch(f"{name} must be an integer, got {v!r}")
        if self.k1 < 1:
            raise ChainMismatch(f"k1 must be positive, got {self.k1}")
        s1, t1 = self.s1, self.t1
        if s1 is None and t1 is None:
            s1 = 1
        for name, v in (("s1", s1), ("t1", t1)):
            if v is not None and v < 1:
                raise ChainMismatch(f"declared {name}={v} must be positive")
            if v is not None and self.k1 % v:
                raise ChainMismatch(f"declared {name}={v} does not divide k1={self.k1}")
        s1 = self.k1 // t1 if s1 is None else s1
        t1 = self.k1 // s1 if t1 is None else t1
        if s1 * t1 != self.k1:
            raise ChainMismatch(f"declared split {s1}*{t1} does not equal k1={self.k1}")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "t1", t1)
        if not self.cycle:
            raise ChainMismatch("a tower needs at least one cycle descriptor")
        # Chain dimensions through the preamble and two full cycle passes;
        # a second pass is what rules out explicit partitions whose fixed
        # source dimension cannot recur.
        self._levels.append((self.k1, s1, t1))
        self.level_dims(len(self.preamble) + 2 * len(self.cycle) + 1)
        # No descriptor shrinks k, so a pass that keeps k keeps it forever:
        # the limit would be finite-dimensional, and level walks looking
        # for a larger dimension would never stop.
        k = self.level_dim(len(self.preamble) + 1)
        if self.level_dim(len(self.preamble) + len(self.cycle) + 1) == k:
            raise ChainMismatch(f"the cycle leaves k={k} unchanged; tower dimensions must grow")

    # -- per-level data --------------------------------------------------

    def descriptor_at(self, n: int) -> Descriptor:
        """The descriptor embedding level n into level n+1 (n >= 1)."""
        if n < 1:
            raise OutOfRange(f"level must be >= 1, got {n}")
        idx = n - 1
        if idx < len(self.preamble):
            return self.preamble[idx]
        return self.cycle[(idx - len(self.preamble)) % len(self.cycle)]

    @cached_property
    def _steps(self) -> tuple[_Step, ...]:
        """The Gelfand walk's rows (multiplicity, t, grid): k1's row
        (k1, None, None), then one per preamble and cycle descriptor with
        exactly one of t and grid set: t for a closed form, the partition's
        read-only ``array`` for a ``part`` level.  ``__post_init__`` chained
        the preamble and two cycle passes, so a ``part`` level sits in the
        preamble and its grid chains.  Coordinate n reads row n - 1, and
        past the preamble the cycle rows repeat modulo the cycle length,
        so the memo is as long as the tower's text, whatever the depth of
        the points read against it."""
        rows: list[_Step] = [(self.k1, None, None)]
        for d in self.preamble + self.cycle:
            grid = None if d.partition is None else d.partition.array
            rows.append((d.multiplicity, d.t_mult if grid is None else None, grid))
        return tuple(rows)

    def level_dim(self, n: int) -> int:
        return self.level_dims(n)[0]

    def level_dims(self, n: int) -> tuple[int, Optional[int], Optional[int]]:
        """(k_n, s_n, t_n); the split entries are None past a part level."""
        if n < 1:
            raise OutOfRange(f"level must be >= 1, got {n}")
        table = self._levels
        if len(table) < n:
            table.extend(itertools.islice(self._walk(len(table), *table[-1]), n - len(table)))
        return table[n - 1]

    def _walk(self, level: int, k, s, t):
        """Yield (k, s, t) of level+1, level+2, ... from those of ``level``;
        s and t are None past a part level.  It reads the descriptors in
        order and only multiplies by their ints, so it runs alike on ints
        (the level table) and on decimals under an exact context
        (``tower show``)."""
        pre, cyc = self.preamble, self.cycle
        i = level - 1
        rest = pre[i:] if i < len(pre) else cyc[(i - len(pre)) % len(cyc):]
        for d in itertools.chain(rest, itertools.cycle(cyc)):
            if d.partition is None:
                k *= d.s_mult * d.t_mult
                if s is not None:
                    s *= d.s_mult
                    t *= d.t_mult
            else:
                try:
                    k = d.k_to(k)
                except ChainMismatch as exc:
                    raise ChainMismatch(f"level {level}: {exc}") from None
                s = t = None
            level += 1
            yield k, s, t

    def embedding(self, n: int) -> RegularEmbedding:
        return self.descriptor_at(n).embedding(self.level_dim(n))

    def composite(self, m: int, m_to: int) -> RegularEmbedding:
        """The composed embedding from level m up to level m_to."""
        if not 1 <= m <= m_to:
            raise OutOfRange(f"need 1 <= m <= m_to, got {m}..{m_to}")
        e = identity_embedding(self.level_dim(m))
        for n in range(m, m_to):
            e = compose_embeddings(self.embedding(n), e)
        return e

    # -- limit data -------------------------------------------------------

    @property
    def is_alternating_form(self) -> bool:
        return all(d.kind != "part" for d in self.preamble + self.cycle)

    def supernatural_pair(self) -> tuple[SupernaturalNumber, SupernaturalNumber]:
        """(s, t) of the limit: preamble ratios carry finite exponents,
        every prime of the cycle ratios divides its side infinitely.
        Kept once found; a refusal is raised again on every call."""
        if self._pair is not None:
            return self._pair
        if not self.is_alternating_form:
            raise NotAlternatingTower(
                "supernatural pair needs s/t ratios at every level"
            )
        s_pre, t_pre = _ratio_product(self.preamble)
        s_cyc, t_cyc = _ratio_product(self.cycle)

        def build(pre: int, cyc: int) -> SupernaturalNumber:
            factors: dict[int, object] = dict(supernatural.factorize(pre))
            for p in supernatural.factorize(cyc):
                factors[p] = INF
            return SupernaturalNumber.from_dict(factors)  # type: ignore[arg-type]

        object.__setattr__(self, "_pair", (build(s_pre, s_cyc), build(t_pre, t_cyc)))
        return self._pair


def format_tower(spec: TowerSpec) -> str:
    lines = [f"k1 {spec.k1}", f"s1 {spec.s1}", f"t1 {spec.t1}"]
    lines.extend(f"preamble {format_descriptor(d)}" for d in spec.preamble)
    lines.extend(f"cycle {format_descriptor(d)}" for d in spec.cycle)
    return "\n".join(lines) + "\n"


def load_tower(text: str) -> TowerSpec:
    header: dict[str, Optional[int]] = {"k1": None, "s1": None, "t1": None}
    preamble: list[Descriptor] = []
    cycle: list[Descriptor] = []
    for lineno, line in _content_lines(text):
        head, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
        try:
            if head in header:
                try:
                    value = int(rest)
                except ValueError:
                    raise ParseError(f"{head} needs an integer, got {rest!r}") from None
                if header[head] is not None:
                    raise ParseError(f"duplicate {head} line")
                header[head] = value
            elif head in ("preamble", "cycle"):
                (preamble if head == "preamble" else cycle).append(parse_descriptor(rest))
            else:
                raise ParseError(f"unknown directive {head!r}")
        except (ParseError, InvalidDescriptor) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    k1 = header["k1"]
    if k1 is None:
        raise ParseError("missing k1 line")
    if not cycle:
        raise ParseError("missing cycle line")
    return TowerSpec(k1, header["s1"], header["t1"], tuple(preamble), tuple(cycle))


@dataclass(frozen=True)
class TensorTower:
    """Levelwise tensor of two towers: dimensions multiply and the
    level-n embedding is the tensor of the factors' level-n embeddings."""

    phi: TowerSpec
    psi: TowerSpec

    def level_dim(self, n: int) -> int:
        return self.phi.level_dim(n) * self.psi.level_dim(n)

    def embedding(self, n: int) -> RegularEmbedding:
        return tensor_embed(self.phi.embedding(n), self.psi.embedding(n))

    composite = TowerSpec.composite
