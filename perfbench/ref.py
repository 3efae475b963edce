"""Reference mathematics for the benchmark's output checks.

Everything here is written from the definitions (block formulas,
products of ratios, rank-pairing) and never calls into ``tuhf``, so an
expected output is a fact the generator planted, not an echo of the
program under test.
"""

from __future__ import annotations

from fractions import Fraction

# -- ordered partitions as lists of sorted blocks -------------------------


def alt_blocks(k: int, s: int, t: int) -> list[list[int]]:
    """The I_s (x) A (x) I_t pattern on k blocks."""
    return [
        [a * k * t + (i - 1) * t + b for a in range(s) for b in range(1, t + 1)]
        for i in range(1, k + 1)
    ]


def alt_element(k: int, t: int, i: int, c: int) -> int:
    """The c-th smallest (0-based) element of block i of alt_blocks(k, s, t),
    for any s."""
    return (c // t) * k * t + (i - 1) * t + c % t + 1


def format_blocks(blocks: list[list[int]]) -> str:
    body = ";".join(",".join(map(str, b)) for b in blocks)
    return f"m={len(blocks) * len(blocks[0])} n={len(blocks)} blocks={body}"


def compose_blocks(outer: list[list[int]], inner: list[list[int]]) -> list[list[int]]:
    """Block i of the composite is the union of the outer blocks over inner block i."""
    return [sorted(x for e in b for x in outer[e - 1]) for b in inner]


def tensor_blocks(a: list[list[int]], b: list[list[int]], b_to: int) -> list[list[int]]:
    """Row-major tensor of two diagonal partitions; b_to is b's ground size."""
    return [
        sorted((i2 - 1) * b_to + y for i2 in pa for y in pb) for pa in a for pb in b
    ]


def assignment(blocks: list[list[int]]) -> list[int]:
    out = [0] * (len(blocks) * len(blocks[0]))
    for i, b in enumerate(blocks, 1):
        for x in b:
            out[x - 1] = i
    return out


def compare_blocks(a: list[list[int]], b: list[list[int]]) -> str:
    """First ground element placed in different blocks decides the order."""
    for x, y in zip(assignment(a), assignment(b)):
        if x != y:
            return "less" if x < y else "greater"
    return "equal-on-projections"


def random_ordered_partition(rng, m: int, n: int) -> list[list[int]]:
    """A random ordered partition of 1..m into n equal blocks.

    Walks an assignment word under the ballot condition (each prefix
    holds at least as many entries of block i as of block i+1), which is
    exactly the rank-order condition.
    """
    size = m // n
    counts = [0] * n
    blocks: list[list[int]] = [[] for _ in range(n)]
    for x in range(1, m + 1):
        allowed = [
            b for b in range(n) if counts[b] < size and (b == 0 or counts[b] < counts[b - 1])
        ]
        b = rng.choice(allowed)
        counts[b] += 1
        blocks[b].append(x)
    return blocks


# -- descriptors and towers -------------------------------------------------


class Desc:
    """A descriptor: kind in std/nest/alt with (s, t), or part with blocks."""

    def __init__(self, kind: str, s: int = 1, t: int = 1, blocks=None) -> None:
        self.kind, self.s, self.t, self.blocks = kind, s, t, blocks

    def text(self) -> str:
        if self.kind == "std":
            return f"std {self.s}"
        if self.kind == "nest":
            return f"nest {self.t}"
        if self.kind == "alt":
            return f"alt {self.s} {self.t}"
        m = len(self.blocks) * len(self.blocks[0])
        return f"part {m} {format_blocks(self.blocks)}"

    def k_to(self, k: int) -> int:
        if self.kind == "part":
            return len(self.blocks) * len(self.blocks[0])
        return k * self.s * self.t

    def element(self, k: int, i: int, c: int) -> int:
        """c-th smallest element (0-based) of block i of this level's embedding."""
        if self.kind == "part":
            return self.blocks[i - 1][c]
        return alt_element(k, self.t, i, c)


class Tower:
    def __init__(self, k1: int, s1: int, t1: int, preamble, cycle) -> None:
        self.k1, self.s1, self.t1 = k1, s1, t1
        self.preamble, self.cycle = list(preamble), list(cycle)

    def text(self) -> str:
        lines = [f"k1 {self.k1}", f"s1 {self.s1}", f"t1 {self.t1}"]
        lines += [f"preamble {d.text()}" for d in self.preamble]
        lines += [f"cycle {d.text()}" for d in self.cycle]
        return "\n".join(lines) + "\n"

    def desc(self, n: int) -> Desc:
        """Descriptor embedding level n into level n+1."""
        if n - 1 < len(self.preamble):
            return self.preamble[n - 1]
        return self.cycle[(n - 1 - len(self.preamble)) % len(self.cycle)]

    def dims(self, levels: int) -> list[tuple[int, int, int]]:
        """(k_n, s_n, t_n) for n = 1..levels, alternating-form towers only."""
        out = [(self.k1, self.s1, self.t1)]
        for n in range(1, levels):
            k, s, t = out[-1]
            d = self.desc(n)
            out.append((k * d.s * d.t, s * d.s, t * d.t))
        return out


# -- prime bookkeeping -------------------------------------------------------


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def product(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def supernatural_text(pre: int, cyc: int) -> str:
    """Finite exponents from the preamble product, inf for every cycle prime."""
    exps: dict[int, object] = dict(factor(pre))
    for p in factor(cyc):
        exps[p] = "inf"
    if not exps:
        return "1"
    terms = []
    for p in sorted(exps):
        e = exps[p]
        terms.append(f"{p}^inf" if e == "inf" else (str(p) if e == 1 else f"{p}^{e}"))
    return "*".join(terms)


def fraction_text(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


# -- the diagonal-spectrum point order -------------------------------------


def projection_chain(tower: Tower, x: list[int]) -> list[int]:
    """Diagonal-unit indices selected by the coordinates, via block formulas."""
    i = x[0] + 1
    chain = [i]
    k = tower.k1
    for n in range(2, len(x) + 1):
        d = tower.desc(n - 1)
        i = d.element(k, i, x[n - 1])
        k = d.k_to(k)
        chain.append(i)
    return chain


def gelfand_text(tower: Tower, x: list[int], y: list[int]) -> str:
    """Expected ``gelfand cmp`` output for two points with equal tails."""
    if x == y:
        coord = proj = "equal"
    else:
        coord = "less" if x < y else "greater"
    ci = projection_chain(tower, x)
    cj = projection_chain(tower, y)
    if x == y:
        witness = f"witness level 1 i {ci[0]} j {cj[0]}"
    else:
        d = max(n for n in range(len(x)) if x[n] != y[n]) + 1
        proj = "less" if ci[d - 1] < cj[d - 1] else "greater"
        if ci[d - 1] > cj[d - 1]:
            witness = "witness absent"
        else:
            witness = f"witness level {d} i {ci[d - 1]} j {cj[d - 1]}"
    return f"coordinate-order {coord}\nprojection-order {proj}\n{witness}\n"
