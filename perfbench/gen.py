"""Seeded workload generator.

``generate(workload, seed, workdir)`` writes the input files a workload
needs into ``workdir`` and returns its plan: one *pass*, a list of CLI
commands with the expected outcome of each.  The benchmark repeats the
pass back to back.  Expected outputs come from ``ref`` (block formulas
and products of ratios), so every check is against a fact planted here.

The seed chooses contents -- splits, primes, level offsets, points,
descriptor orders, random partitions and matrices -- while each pass
keeps a fixed set of size classes, so that runs on different seeds do
comparable amounts of work.
"""

from __future__ import annotations

import cmath
import hashlib
import random
from fractions import Fraction
from math import ceil
from pathlib import Path

import ref
from ref import Desc, Tower

# A pass command's expected result: "rc" is the exit code; then exactly
# one of "text" (exact stdout), "sha256" (digest of a long exact stdout),
# "suites" (check all: every suite ok) or "split" (normalizer split,
# phases compared within a tolerance).
INLINE_LIMIT = 4096

# The command kind each workload's primary_cmd_ms follows.
PRIMARY_KIND = {"deep-shift": "shift", "tower-arith": "show", "check-oracle": "check"}


def _divisor_split(rng: random.Random, k: int) -> tuple[int, int]:
    s = rng.choice([d for d in range(1, k + 1) if k % d == 0])
    return s, k // s


def _expect_text(text: str) -> dict:
    if len(text) <= INLINE_LIMIT:
        return {"rc": 0, "text": text}
    return {
        "rc": 0,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "size": len(text),
    }


class Plan:
    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.commands: list[dict] = []

    def file(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text, encoding="utf-8")
        return name

    def add(self, kind: str, argv: list, expect: dict, stdout_to: str | None = None) -> None:
        cmd = {"kind": kind, "argv": [str(a) for a in argv], "expect": expect}
        if stdout_to is not None:
            cmd["stdout_to"] = stdout_to
        self.commands.append(cmd)


# -- deep-shift --------------------------------------------------------------

# (s, t, k1, b, primes): cycle "alt s t" from k1, shift levels a..b.  The
# walk builds every level action up to level b, so the largest partition
# built has k1 * (s*t)^b elements (131072 .. 262144 here).  An odd count
# of families puts each per-kind median inside one size class.
DEEP_FAMILIES = (
    (2, 2, 1, 9, (2,)),
    (2, 2, 2, 8, (2,)),
    (2, 2, 3, 8, (2,)),
    (2, 2, 4, 8, (2,)),
    (3, 3, 3, 5, (3,)),
    (4, 4, 2, 4, (2,)),
    (6, 6, 4, 3, (2, 3)),
)


def _deep_shift(plan: Plan, rng: random.Random) -> None:
    families = list(enumerate(DEEP_FAMILIES))
    rng.shuffle(families)
    for j, (s, t, k1, b, primes) in families:
        s1, t1 = _divisor_split(rng, k1)
        tower = Tower(k1, s1, t1, [], [Desc("alt", s, t)])
        name = plan.file(f"ds{j}.tower", tower.text())
        p = rng.choice(primes)
        # At least two records, so factor sees two informative ones (k_n > 1).
        a = rng.randint(1, min(3, b - 2))
        dims = tower.dims(b + 1)
        record = []
        report = []
        for n in range(a, b):
            k = dims[n - 1][0]
            record.append(f"levels {n} {n + 1}")
            record.append("action " + ref.format_blocks(ref.alt_blocks(k, s * p, t // p)))
            if k == 1:
                report.append(f"levels {n} {n + 1} uninformative (k = 1)")
            else:
                report.append(f"levels {n} {n + 1} interval s={s * p} t={t // p}")
        report += [f"word {p}/1", "status consistent"]
        auto = f"ds{j}.auto"
        plan.add(
            "shift",
            ["shift", name, "-p", p, "--levels", f"{a}..{b}"],
            _expect_text("\n".join(record) + "\n"),
            stdout_to=auto,
        )
        plan.add("factor", ["factor", name, "--auto", auto], _expect_text("\n".join(report) + "\n"))

        # Two points at level b; the chain walks every embedding below it.
        def point() -> list[int]:
            return [rng.randrange(k1)] + [rng.randrange(s * t) for _ in range(b - 1)]

        x, y = point(), point()
        plan.add(
            "gelfand",
            ["gelfand", "cmp", name, "--x", ",".join(map(str, x)), "--y", ",".join(map(str, y))],
            _expect_text(ref.gelfand_text(tower, x, y)),
        )

        # The cycle chained from k1 to level b, each step written as a
        # std/nest pair in seeded order; the composite is alt(k1, s^n, t^n).
        steps = []
        for _ in range(b - 1):
            pair = [f"std {s}", f"nest {t}"]
            rng.shuffle(pair)
            steps += pair
        n_steps = b - 1
        blocks = ref.alt_blocks(k1, s**n_steps, t**n_steps)
        text = f"k_from {k1}\nk_to {dims[b - 1][0]}\n{ref.format_blocks(blocks)}\n"
        plan.add("embed", ["embed", "compose", "--k", k1, *steps], _expect_text(text))


# -- tower-arith -------------------------------------------------------------

# Levels printed by `tower show`; a pass shows two towers at each.  The
# band is narrow so that the p90 latency falls among many similar shows.
SHOW_LEVELS = (840, 860, 880, 900, 920, 940, 960)
CYCLE_PRIMES = (2, 3, 5)
CYCLE_GROWTH = 30
PREAMBLE_PRIMES = (7, 11, 13)


def _random_desc(rng: random.Random, s: int, t: int) -> Desc:
    if t == 1:
        return Desc("std", s, 1)
    if s == 1:
        return Desc("nest", 1, t)
    return Desc("alt", s, t)


def _arith_tower(rng: random.Random) -> Tower:
    """A tower whose cycle is one or two mirrored pairs of steps (s, t)
    and (t, s) with s*t = 2*3*5, in seeded order, after a preamble over
    the primes 7, 11, 13.  Every level grows by 30 and both sides grow
    alike, so the level numbers, and the work per level, are the same on
    every seed; every cycle prime is infinite on both sides."""
    cycle = []
    for _ in range(rng.randint(1, 2)):
        s = ref.product(q for q in CYCLE_PRIMES if rng.random() < 0.5)
        t = CYCLE_GROWTH // s
        cycle += [_random_desc(rng, s, t), _random_desc(rng, t, s)]
    rng.shuffle(cycle)
    preamble = []
    for _ in range(rng.randint(1, 3)):
        s = rng.choice((1,) + PREAMBLE_PRIMES)
        t = rng.choice(PREAMBLE_PRIMES) if s == 1 else rng.choice((1,) + PREAMBLE_PRIMES)
        preamble.append(_random_desc(rng, s, t))
    k1 = rng.randint(1, 12)
    s1, t1 = _divisor_split(rng, k1)
    return Tower(k1, s1, t1, preamble, cycle)


def _side_products(tower: Tower) -> tuple[int, int, int, int]:
    return (
        ref.product(d.s for d in tower.preamble),
        ref.product(d.t for d in tower.preamble),
        ref.product(d.s for d in tower.cycle),
        ref.product(d.t for d in tower.cycle),
    )


def _show_text(tower: Tower, levels: int) -> str:
    lines = [f"level {n} k {k} s {s} t {t}" for n, (k, s, t) in enumerate(tower.dims(levels), 1)]
    ps, pt, cs, ct = _side_products(tower)
    lines.append(f"s-side {ref.supernatural_text(ps, cs)}")
    lines.append(f"t-side {ref.supernatural_text(pt, ct)}")
    return "\n".join(lines) + "\n"


def _normalize_text(tower: Tower, u: int, v: int) -> str:
    """A tower presenting the same limit with u*v in every step ratio:
    the preamble folds into the base and enough cycle passes merge into
    one step; an already normalized tower comes back unchanged."""
    uv = u * v
    if all(d.s % uv == 0 and d.t % uv == 0 for d in tower.preamble + tower.cycle):
        return tower.text()
    k0, s0, t0 = tower.dims(len(tower.preamble) + 1)[-1]
    _, _, cs, ct = _side_products(tower)
    fs, ft = ref.factor(cs), ref.factor(ct)
    passes = max(
        [1] + [max(ceil(e / fs[q]), ceil(e / ft[q])) for q, e in ref.factor(uv).items()]
    )
    return f"k1 {k0}\ns1 {s0}\nt1 {t0}\ncycle alt {cs**passes} {ct**passes}\n"


def _iso_partner(rng: random.Random, tower: Tower, r: Fraction) -> Tower:
    """A tower whose pair is (s / r, t * r): same cycle rotated, preamble
    regrouped with r's primes moved from the s-side to the t-side."""
    ps, pt, _, _ = _side_products(tower)
    s_b, t_b = Fraction(ps) / r, Fraction(pt) * r
    assert s_b.denominator == 1 and t_b.denominator == 1
    s_f, t_f = ref.factor(s_b.numerator), ref.factor(t_b.numerator)
    s_primes = [q for q, e in sorted(s_f.items()) for _ in range(e)]
    t_primes = [q for q, e in sorted(t_f.items()) for _ in range(e)]
    rng.shuffle(s_primes)
    rng.shuffle(t_primes)
    preamble = []
    while s_primes or t_primes:
        s = s_primes.pop() if s_primes else 1
        t = t_primes.pop() if t_primes else 1
        preamble.append(_random_desc(rng, s, t))
    shift = rng.randrange(len(tower.cycle))
    cycle = tower.cycle[shift:] + tower.cycle[:shift]
    k1 = rng.randint(1, 12)
    s1, t1 = _divisor_split(rng, k1)
    return Tower(k1, s1, t1, preamble, cycle)


def _random_word(rng: random.Random) -> tuple[int, int]:
    """u/v in lowest terms over two distinct cycle primes."""
    p, q = rng.sample(CYCLE_PRIMES, 2)
    return p ** rng.randint(1, 2), q ** rng.randint(0, 2)


def _tower_arith(plan: Plan, rng: random.Random) -> None:
    levels = list(SHOW_LEVELS) * 2
    rng.shuffle(levels)
    for j, n_levels in enumerate(levels):
        tower = _arith_tower(rng)
        name = plan.file(f"ta{j}.tower", tower.text())
        plan.add("show", ["tower", "show", name, "--levels", n_levels],
                 _expect_text(_show_text(tower, n_levels)))
        p = rng.choice(CYCLE_PRIMES)
        plan.add("normalize", ["tower", "normalize", name, "-p", p],
                 _expect_text(_normalize_text(tower, p, 1)))
        u, v = _random_word(rng)
        plan.add("normalize", ["tower", "normalize", name, "--word", f"{u}/{v}"],
                 _expect_text(_normalize_text(tower, u, v)))
        _, _, cs, ct = _side_products(tower)
        rank = len(set(ref.factor(cs)) & set(ref.factor(ct)))
        plan.add("iso", ["out-rank", name], _expect_text(f"{rank}\n"))

        # Planted witness: r moves preamble primes between the sides.
        ps, pt, _, _ = _side_products(tower)
        r = Fraction(1)
        for q, e in ref.factor(ps).items():
            r *= Fraction(q) ** rng.randint(0, e)
        for q, e in ref.factor(pt).items():
            r /= Fraction(q) ** rng.randint(0, e)
        partner = _iso_partner(rng, tower, r)
        if j == 0:
            # One pair per pass differs in an infinite prime: no witness.
            partner.cycle = partner.cycle + [Desc("std", 13, 1)]
            expect = "not isomorphic\n"
        else:
            expect = f"isomorphic, r = {ref.fraction_text(r)}\n"
        other = plan.file(f"ta{j}b.tower", partner.text())
        plan.add("iso", ["iso", name, other], _expect_text(expect))


# -- check-oracle ------------------------------------------------------------

CHECK_CASES = 5
# `check all` towers, one per slot: (k1, cycle steps).  Slot i always runs
# the suites with seed i; the seed orders the steps and picks the split.
# All but slot 2 carry a common prime, so the suites fold the tower in.
# Five slots in a pass of 45 commands put the p90 latency inside them.
CHECK_TOWERS = (
    (4, ((2, 2),)),
    (3, ((2, 1), (1, 2))),
    (2, ((3, 1), (1, 2))),
    (1, ((3, 3),)),
    (2, ((1, 2), (2, 1), (1, 2))),
)
# Sizes of the small commands of a pass; the seed fills in the contents.
# (k, r1, r2, lead): parts k -> k*r1 -> k*r1*r2, after a doubling std/nest
# step from k/2 when lead is set (k even).
COMPOSE_SHAPES = ((2, 4, 3, False), (3, 3, 4, False), (4, 2, 5, True), (5, 4, 5, False),
                  (2, 5, 5, True), (3, 5, 6, False), (4, 3, 3, True), (5, 3, 2, False),
                  (2, 6, 8, True), (3, 2, 6, False))
COMPARE_SHAPES = ((2, 10), (3, 8), (4, 6), (5, 5), (6, 4), (3, 12))  # (k, m/k)
TENSOR_SHAPES = ((2, 3, 6), (3, 2, 5), (4, 2, 4), (1, 4, 12), (2, 2, 8), (3, 3, 3))  # (k, j, m/k)
GELFAND_DEPTHS = (1, 2, 3, 3, 2, 3, 1, 3, 2, 3)
SPLIT_SIZES = (2, 4, 6, 8, 10, 12, 14, 16)


def _small_alt_tower(rng: random.Random, with_part: bool) -> Tower:
    k1 = rng.randint(1, 4)
    s1, t1 = _divisor_split(rng, k1)
    cycle = []
    for _ in range(rng.randint(1, 2)):
        s, t = rng.choice(((2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2)))
        cycle.append(_random_desc(rng, s, t))
    preamble = []
    if with_part:
        m = k1 * rng.randint(2, 4)
        preamble.append(Desc("part", blocks=ref.random_ordered_partition(rng, m, k1)))
    return Tower(k1, s1, t1, preamble, cycle)


def _random_part(rng: random.Random, k: int, r: int) -> Desc:
    return Desc("part", blocks=ref.random_ordered_partition(rng, k * r, k))


def _desc_blocks(d: Desc, k: int) -> list[list[int]]:
    return d.blocks if d.kind == "part" else ref.alt_blocks(k, d.s, d.t)


def _embed_text(k_from: int, blocks: list[list[int]]) -> str:
    m = len(blocks) * len(blocks[0])
    return f"k_from {k_from}\nk_to {m}\n{ref.format_blocks(blocks)}\n"


def _split_case(rng: random.Random, k: int) -> tuple[str, dict]:
    """A diagonal-normalizing partial isometry V = D W with planted D, W."""
    free_cols = list(range(1, k + 1))
    pairs = []
    for r in range(1, k + 1):
        options = [c for c in free_cols if c >= r]
        if options and rng.random() < 0.8:
            c = rng.choice(options)
            free_cols.remove(c)
            pairs.append((r, c))
    phases = {r: cmath.exp(1j * rng.uniform(-3.1, 3.1)) for r, _ in pairs}
    rows = [["0,0"] * k for _ in range(k)]
    for r, c in pairs:
        z = phases[r]
        rows[r - 1][c - 1] = f"{z.real!r},{z.imag!r}"
    text = f"dim {k}\n" + "\n".join(" ".join(row) for row in rows) + "\n"
    expect = {
        "rc": 0,
        "split": {
            "phases": [
                [phases[r].real, phases[r].imag] if r in phases else [1.0, 0.0]
                for r in range(1, k + 1)
            ],
            "pattern": "pattern " + " ".join(f"{r},{c}" for r, c in pairs),
        },
    }
    return text, expect


def _check_oracle(plan: Plan, rng: random.Random) -> None:
    small: list[tuple] = []
    for slot, (k1, steps) in enumerate(CHECK_TOWERS):
        steps = list(steps)
        rng.shuffle(steps)
        tower = Tower(k1, *_divisor_split(rng, k1), [], [_random_desc(rng, s, t) for s, t in steps])
        name = plan.file(f"co{slot}.tower", tower.text())
        small.append(("check", ["check", "all", name, "--seed", slot, "--cases", CHECK_CASES],
                      {"rc": 0, "suites": True}))
    for k, r1, r2, lead in COMPOSE_SHAPES:  # two part steps, some after a std/nest step
        chain = [_random_part(rng, k, r1), _random_part(rng, k * r1, r2)]
        k0 = k
        if lead:
            chain.insert(0, rng.choice((Desc("std", 2, 1), Desc("nest", 1, 2))))
            k0 = k // 2
        blocks, kk = None, k0
        for d in chain:
            step = _desc_blocks(d, kk)
            blocks = step if blocks is None else ref.compose_blocks(step, blocks)
            kk = d.k_to(kk)
        small.append(("embed", ["embed", "compose", "--k", k0, *[d.text() for d in chain]],
                      _expect_text(_embed_text(k0, blocks))))
    for idx, (k, r) in enumerate(COMPARE_SHAPES):  # order two same-shape embeddings
        a = _random_part(rng, k, r)
        if idx == 0:
            b = Desc("alt", *_divisor_split(rng, r))
        elif idx == 1:
            b = a
        else:
            b = _random_part(rng, k, r)
        verdict = ref.compare_blocks(_desc_blocks(a, k), _desc_blocks(b, k))
        small.append(("embed", ["embed", "compare", "--k", k, a.text(), b.text()],
                      _expect_text(verdict + "\n")))
    for k, j, r in TENSOR_SHAPES:  # a random part tensored with a std/nest/alt pattern
        a = _random_part(rng, k, r)
        b = _random_desc(rng, *rng.choice(((2, 1), (1, 2), (2, 2), (1, 3))))
        blocks = ref.tensor_blocks(_desc_blocks(a, k), _desc_blocks(b, j), b.k_to(j))
        argv = ["embed", "tensor", "--k", k, "--j", j, a.text(), b.text()]
        small.append(("embed", argv, _expect_text(_embed_text(k * j, blocks))))
    for j, depth in enumerate(GELFAND_DEPTHS):  # points at depth <= 3
        tower = _small_alt_tower(rng, with_part=j % 2 == 1)
        name = plan.file(f"cg{j}.tower", tower.text())
        k = [tower.k1]
        for n in range(1, depth):
            k.append(tower.desc(n).k_to(k[-1]))
        ranges = [k[0]] + [k[n] // k[n - 1] for n in range(1, depth)]
        x = [rng.randrange(q) for q in ranges]
        y = list(x) if j == 4 else [rng.randrange(q) for q in ranges]
        argv = ["gelfand", "cmp", name, "--x", ",".join(map(str, x)), "--y", ",".join(map(str, y))]
        if j == 6:  # different declared tails never compare
            argv += ["--tail-x", "a", "--tail-y", "b"]
            text = "coordinate-order incomparable\nprojection-order incomparable\nwitness absent\n"
        else:
            text = ref.gelfand_text(tower, x, y)
        small.append(("gelfand", argv, _expect_text(text)))
    for j, k in enumerate(SPLIT_SIZES):
        text, expect = _split_case(rng, k)
        name = plan.file(f"ns{j}.mat", text)
        small.append(("split", ["normalizer", "split", "--matrix", name], expect))
    rng.shuffle(small)
    for kind, argv, expect in small:
        plan.add(kind, argv, expect)


GENERATORS = {
    "deep-shift": _deep_shift,
    "tower-arith": _tower_arith,
    "check-oracle": _check_oracle,
}


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into workdir; return its pass."""
    plan = Plan(workdir)
    GENERATORS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan.commands
