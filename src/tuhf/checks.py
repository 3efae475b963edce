"""Seeded randomized property suites.

Every structural fact the library leans on -- order preservation under
composition, prefix restriction, run-size monotonicity, interval-form
closure, the normalizer split, straightening, shift well-definedness,
factorization round trips, torsion, the two order definitions on the
diagonal spectrum -- is expressed here as a named suite over seeded
random instances.  The CLI's ``check all`` and the test suite both call
into this module, so there is exactly one implementation of each
property and one set of instance generators.

Suites share the signature ``fn(rng, cases, tower) -> (ok, detail)``.
The tower argument is the file the CLI was pointed at; suites that can
use it fold it into their instance pool, the rest ignore it.  All
randomness comes from the passed-in ``random.Random``, so a seed pins
every instance.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .automorphisms import (
    FiniteAutoData,
    ShiftWord,
    alternating_iso,
    combine_tensor_autos,
    common_infinite_primes,
    dirichlet_dimension_check,
    factor_automorphism,
    format_auto_data,
    format_word,
    lift_block_words,
    load_auto_data,
    materialize_word,
    normalize_for_word,
    parse_word,
    torsion_check,
    word_action,
)
from .embeddings import (
    alternating,
    compose_embeddings,
    image_of_unit,
    nest,
    standard,
)
from .gelfand import (
    GelfandOrder,
    GelfandPoint,
    coordinate_sizes,
    gelfand_compare,
    gelfand_readings,
    projection_chain,
)
from .matrices import (
    UNIT_TOL,
    ComplexUpperTriangular,
    DiagonalUnitary,
    PartialPermutationMatrix,
    apply_to_matrix,
    conjugate_by_diagonal,
    format_matrix,
    normalizer_split,
    parse_matrix,
    recompose,
    straighten_level,
)
from .partitions import (
    Order,
    OrderedPartition,
    _is_partition_grid,
    compare,
    compose,
    format_partition,
    interleaved_runs,
    ordered_partitions,
    parse_partition,
    psize_oracle,
    restrict_prefix,
    runs_of,
)
from .supernatural import SupernaturalNumber, factorize, multiply
from .towers import (
    Descriptor,
    TensorTower,
    TowerSpec,
    format_tower,
    load_tower,
)

_PRIMES = (2, 3, 5, 7, 11, 13)
# Largest level dimension a shift suite materializes, and the smaller
# one for the torsion power chains and the optional third record.
_DIM_CAP = 120_000
_SMALL_DIM_CAP = 60_000
# Largest level-3 dimension of the interval towers the point-order
# suites enumerate exhaustively.
_K3_CAP = 64
# Target ground sizes and search attempts of a random run-size instance.
_PSIZE_GROUND = (13, 24)
_PSIZE_ATTEMPTS = 600

SuiteResult = tuple[bool, str]
Suite = Callable[[random.Random, int, Optional[TowerSpec]], SuiteResult]


# ----------------------------------------------------------------------
# instance generators
# ----------------------------------------------------------------------

def random_ordered_partition(rng: random.Random, m: int, n: int) -> OrderedPartition:
    """Uniform-support sampler via the ballot walk.

    At each ground element choose any block that is still short and not
    ahead of its left neighbour; every valid partition is reachable and
    the walk can never strand itself (the first unfilled block is always
    admissible).
    """
    size = m // n
    counts = [0] * n
    word: list[int] = []
    for _ in range(m):
        allowed = [
            b for b in range(n)
            if counts[b] < size and (b == 0 or counts[b] < counts[b - 1])
        ]
        b = rng.choice(allowed)
        counts[b] += 1
        word.append(b + 1)
    return OrderedPartition.from_assignment(word, n)


def random_shape(rng: random.Random, m_max: int) -> tuple[int, int]:
    """A random (ground size, block count) pair with equal blocks."""
    n = rng.randint(1, min(6, m_max))
    size = rng.randint(1, m_max // n)
    return n * size, n


def random_phase(rng: random.Random) -> complex:
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(angle), np.sin(angle))


def random_diagonal_unitary(rng: random.Random, k: int) -> DiagonalUnitary:
    return DiagonalUnitary(tuple(random_phase(rng) for _ in range(k)))


def random_partial_permutation(rng: random.Random, k: int) -> PartialPermutationMatrix:
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for r in range(1, k + 1):
        if rng.random() >= 0.8:
            continue
        cands = [c for c in range(r, k + 1) if c not in used]
        if not cands:
            continue
        c = rng.choice(cands)
        used.add(c)
        pairs.append((r, c))
    return PartialPermutationMatrix(k, tuple(pairs))


def random_upper_triangular(rng: random.Random, k: int) -> ComplexUpperTriangular:
    a = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            a[i, j] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ComplexUpperTriangular(a)


def _random_mult(rng: random.Random, cap: int) -> int:
    """A product of small primes that stays <= cap (possibly 1)."""
    m = 1
    while rng.random() < 0.6:
        p = rng.choice(_PRIMES)
        if m * p > cap:
            break
        m *= p
    return m


def random_descriptor(rng: random.Random, max_ratio: int) -> Descriptor:
    kind = rng.choice(("std", "nest", "alt"))
    if kind == "std":
        return Descriptor("std", s_mult=max(2, _random_mult(rng, max_ratio)))
    if kind == "nest":
        return Descriptor("nest", t_mult=max(2, _random_mult(rng, max_ratio)))
    s = _random_mult(rng, max_ratio)
    t = _random_mult(rng, max(1, max_ratio // s))
    if s == 1 and t == 1:
        t = 2
    return Descriptor("alt", s_mult=s, t_mult=t)


def random_alternating_tower(
    rng: random.Random, *, k1_max: int = 4, max_ratio: int = 8
) -> TowerSpec:
    """A small alternating-form tower; no promise about common primes."""
    k1 = rng.randint(1, k1_max)
    s1 = rng.choice(_divisors(k1))
    pre = tuple(random_descriptor(rng, max_ratio) for _ in range(rng.randint(0, 1)))
    cyc = tuple(random_descriptor(rng, max_ratio) for _ in range(rng.randint(1, 2)))
    return TowerSpec(k1, s1, k1 // s1, pre, cyc)


def random_shift_instance(rng: random.Random) -> tuple[TowerSpec, ShiftWord]:
    """A tower and a nontrivial word the tower supports.

    The word's primes all occur in the cycle on both sides with at least
    the word's exponent, so normalize_for_word never needs more than one
    cycle pass and materialized levels stay within _DIM_CAP.
    """
    max_ratio = 30
    for _ in range(200):
        if rng.random() < 0.2:
            # square style: one prime, exponent up to 2 on each side
            p = rng.choice((2, 3))
            chosen = [p]
            s_mult = t_mult = p * p
            exps = {p: rng.randint(1, 2)}
        else:
            chosen = rng.sample(_PRIMES, rng.randint(1, 2))
            prod = 1
            for p in chosen:
                prod *= p
            if prod > max_ratio:
                continue
            extra_s = rng.choice([e for e in (1, 2, 3, 5) if prod * e <= max_ratio])
            extra_t = rng.choice([e for e in (1, 2, 3, 5) if prod * e <= max_ratio])
            s_mult, t_mult = prod * extra_s, prod * extra_t
            exps = {p: 1 for p in chosen}
        k1 = rng.randint(1, 4)
        s1 = rng.choice(_divisors(k1))
        pre: tuple[Descriptor, ...] = ()
        if rng.random() < 0.3:
            pre = (random_descriptor(rng, 6),)
        tower = TowerSpec(k1, s1, k1 // s1, pre, (Descriptor("alt", s_mult, t_mult),))
        u = v = 1
        for p in chosen:
            side = rng.random()
            if side < 0.45:
                u *= p ** exps[p]
            elif side < 0.9:
                v *= p ** exps[p]
        if u == v == 1:
            p = chosen[0]
            if rng.random() < 0.5:
                u = p ** exps[p]
            else:
                v = p ** exps[p]
        w = ShiftWord(u, v)
        if normalize_for_word(tower, w).level_dim(3) <= _DIM_CAP:
            return tower, w
    raise RuntimeError("could not generate a shift instance within the caps")


def random_torsion_instance(rng: random.Random) -> tuple[TowerSpec, ShiftWord, int]:
    """A (tower, nontrivial word, power) triple small enough to cross-check."""
    style = rng.random()
    if style < 0.25:
        cyc = Descriptor("alt", 6, 6)
        choices = (ShiftWord(2, 3), ShiftWord(3, 2), ShiftWord(6, 1), ShiftWord(2, 1))
    elif style < 0.6:
        cyc = Descriptor("alt", 2, 2)
        choices = (ShiftWord(2, 1), ShiftWord(1, 2))
    else:
        cyc = Descriptor("alt", 3, 3)
        choices = (ShiftWord(3, 1), ShiftWord(1, 3))
    k1 = rng.choice((1, 2, 3))
    tower = TowerSpec(k1, 1, k1, (), (cyc,))
    w = rng.choice(choices)
    base = 1 if tower.level_dim(1) > 1 else 2
    m = rng.randint(1, 6)
    while m > 1 and tower.level_dim(base + m) > _SMALL_DIM_CAP:
        m -= 1
    return tower, w, m


def random_interval_tower(rng: random.Random) -> TowerSpec:
    """A nest-form tower (every step A |-> A (x) I)."""
    while True:
        k1 = rng.choice((2, 3, 4))
        pre: tuple[Descriptor, ...] = ()
        if rng.random() < 0.3:
            pre = (Descriptor("nest", t_mult=rng.choice((2, 3))),)
        cyc = tuple(
            Descriptor("nest", t_mult=rng.choice((2, 3, 4)))
            for _ in range(rng.choice((1, 1, 2)))
        )
        tower = TowerSpec(k1, 1, k1, pre, cyc)
        if tower.level_dim(3) <= _K3_CAP:
            return tower


def random_point(rng: random.Random, tower: TowerSpec, depth: int) -> GelfandPoint:
    sizes = coordinate_sizes(tower, depth)
    return GelfandPoint(tuple(rng.randrange(size) for size in sizes))


def all_points(tower: TowerSpec, depth: int) -> Iterator[GelfandPoint]:
    ranges = [range(size) for size in coordinate_sizes(tower, depth)]
    for coords in itertools.product(*ranges):
        yield GelfandPoint(coords)


# -- run-size instances -------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _psize_runs(
    p: OrderedPartition, elems: Sequence[int], rng: Optional[random.Random] = None
) -> Iterator[tuple[tuple[range, ...], tuple[range, ...]]]:
    """Every (source runs, target runs) pair over the source elements
    ``elems`` of p: the sorted image is cut into n runs of size h plus a
    nonempty remainder, and the elements into n matching intervals.

    The jumps are the positions j where the sorted image does not follow
    position j-1.  Every target run is a contiguous interval exactly when
    each jump falls on a multiple of h up to n*h, so one gcd and the last
    jump decide each (n, h) before any run is built.  Source run i must
    hold the position in ``elems`` of every element of target run i, so
    cut i (where source run i+1 starts) lies after target run i's last
    position and at or before target run i+1's first; these spans are
    disjoint and increasing, so every choice of cuts increases.  Every
    gap in ``elems`` must be a cut.  ``rng`` shuffles the (n, h)
    candidates.
    """
    blocks = p.blocks
    owners = sorted((x, j) for j, e in enumerate(elems) for x in blocks[e - 1])
    sorted_image = [x for x, _ in owners]
    where = [j for _, j in owners]
    t, size = len(sorted_image), len(elems)
    jumps = [j for j in range(1, t) if sorted_image[j] != sorted_image[j - 1] + 1]
    step, last = math.gcd(*jumps), (jumps[-1] if jumps else 0)
    gaps = {j for j in range(1, size) if elems[j] != elems[j - 1] + 1}
    pairs = [(n, h) for n in range(1, size + 1) for h in range(1, (t - 1) // n + 1)]
    if rng is not None:
        rng.shuffle(pairs)
    for n, h in pairs:
        if step % h or last > n * h:
            continue
        bounds = [(j * h, (j + 1) * h) for j in range(n)] + [(n * h, t)]
        s_runs = tuple(range(sorted_image[lo], sorted_image[hi - 1] + 1) for lo, hi in bounds)
        spans = [
            range(max(where[lo:hi]) + 1, min(where[hi : hi + h]) + 1) for lo, hi in bounds[: n - 1]
        ]
        for cuts in itertools.product(*spans):
            if gaps.issubset(cuts):
                ends = (0, *cuts, size)
                r_runs = tuple(range(elems[a], elems[b - 1] + 1) for a, b in zip(ends, ends[1:]))
                yield r_runs, s_runs


def enumerate_psize_instances(
    s_max: int,
) -> Iterator[tuple[tuple[range, ...], tuple[range, ...], OrderedPartition]]:
    """Every hypothesis-satisfying run-size configuration with target
    ground size up to s_max, as (source runs, target runs, embedding)."""
    for s in range(1, s_max + 1):
        for r in _divisors(s):
            for p in ordered_partitions(s, r):
                for mask in range(1, 1 << r):
                    elems = [e + 1 for e in range(r) if mask >> e & 1]
                    for r_runs, s_runs in _psize_runs(p, elems):
                        yield r_runs, s_runs, p


def random_psize_instance(
    rng: random.Random,
) -> tuple[tuple[range, ...], tuple[range, ...], OrderedPartition]:
    """One random hypothesis-satisfying configuration, by filtered search."""
    for _ in range(_PSIZE_ATTEMPTS):
        s = rng.randint(*_PSIZE_GROUND)
        r = rng.choice([d for d in _divisors(s) if d >= 2])
        p = random_ordered_partition(rng, s, r)
        if rng.random() < 0.5:
            lo = rng.randint(1, r)
            elems = list(range(lo, rng.randint(lo, r) + 1))
        else:
            elems = [e for e in range(1, r + 1) if rng.random() < 0.5]
            if not elems:
                continue
        for r_runs, s_runs in _psize_runs(p, elems, rng):
            return r_runs, s_runs, p
    raise RuntimeError(
        f"no run-size instance found in {_PSIZE_ATTEMPTS} attempts (s in {_PSIZE_GROUND})"
    )


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def _suite_partition_total_order(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    flips = {Order.LESS: Order.GREATER, Order.GREATER: Order.LESS, Order.EQUAL: Order.EQUAL}
    for idx in range(cases):
        m, n = random_shape(rng, 18)
        a = random_ordered_partition(rng, m, n)
        b = random_ordered_partition(rng, m, n)
        c = random_ordered_partition(rng, m, n)
        ab, ba = compare(a, b), compare(b, a)
        if ba is not flips[ab]:
            return False, f"case {idx}: compare not antisymmetric on shape {n}|{m}"
        if (ab is Order.EQUAL) != (a == b):
            return False, f"case {idx}: Equal verdict disagrees with equality"
        if ab is not Order.GREATER and compare(b, c) is not Order.GREATER:
            if compare(a, c) is Order.GREATER:
                return False, f"case {idx}: transitivity fails on shape {n}|{m}"
    return True, f"{cases} cases"


def _suite_order_preservation(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        m, n = random_shape(rng, 24)
        a = random_ordered_partition(rng, m, n)
        b = random_ordered_partition(rng, m, n)
        if compare(a, b) is Order.GREATER:
            a, b = b, a
        mult = rng.randint(1, 96 // m)
        phi = random_ordered_partition(rng, m * mult, m)
        pa, pb = compose(phi, a), compose(phi, b)
        if not (_is_partition_grid(pa.array) and _is_partition_grid(pb.array)):
            return False, (
                f"case {idx}: a composite of shape {n}|{m * mult} is not an ordered partition"
            )
        if compare(pa, pb) is not compare(a, b):
            return False, f"case {idx}: composition broke the order on shape {n}|{m}"
    return True, f"{cases} cases"


def _suite_compose_associative(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        n = rng.randint(1, 4)
        m = n * rng.randint(1, 3)
        m2 = m * rng.randint(1, 3)
        m3 = m2 * rng.randint(1, 3)
        a = random_ordered_partition(rng, m, n)
        phi = random_ordered_partition(rng, m2, m)
        psi = random_ordered_partition(rng, m3, m2)
        lhs = compose(psi, compose(phi, a))
        if lhs != compose(compose(psi, phi), a):
            return False, f"case {idx}: associativity fails at {n}|{m}|{m2}|{m3}"
        if not _is_partition_grid(lhs.array):
            return False, (
                f"case {idx}: the composite at {n}|{m}|{m2}|{m3} is not an ordered partition"
            )
    return True, f"{cases} cases"


def _suite_prefix_restriction(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        m, n = random_shape(rng, 24)
        p = random_ordered_partition(rng, m, n)
        m_prime = rng.randint(1, m)
        sub = restrict_prefix(p, m_prime)  # constructor revalidates the invariants
        expected = [tuple(x for x in b if x <= m_prime) for b in p.blocks]
        while expected and not expected[-1]:
            expected.pop()
        if list(sub.blocks) != expected:
            return False, f"case {idx}: wrong prefix content at m'={m_prime}"
        sizes = sub.sizes()
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            return False, f"case {idx}: sizes not weakly decreasing"
    return True, f"{cases} cases"


def _suite_interleaved_runs(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        m, n = random_shape(rng, 24)
        p = random_ordered_partition(rng, m, n)
        grid = interleaved_runs(p)
        flat = [cell for row in grid for cell in row]
        while flat and flat[-1] is None:
            flat.pop()
        if not flat or flat[0] is None:
            return False, f"case {idx}: cell (1,1) empty"
        occupied = [cell for cell in flat if cell is not None]
        if any(occupied[i][-1] >= occupied[i + 1].start for i in range(len(occupied) - 1)):
            return False, f"case {idx}: grid cells out of global order"
        gap = worst = 0
        for cell in flat:
            gap = gap + 1 if cell is None else 0
            worst = max(worst, gap)
        if worst > max(0, n - 2):
            return False, f"case {idx}: {worst} consecutive empty cells with {n} columns"
        for i in range(1, n + 1):
            col = [row[i - 1] for row in grid if row[i - 1] is not None]
            got = [x for run in col for x in run]
            if tuple(sorted(got)) != p.block(i) or col != list(runs_of(p.block(i))):
                return False, f"case {idx}: column {i} does not rebuild its block"
    return True, f"{cases} cases"


def _suite_run_size_oracle(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    deep = 0
    for idx in range(cases):
        r_runs, s_runs, p = random_psize_instance(rng)
        if not psize_oracle(r_runs, s_runs, p):
            return False, f"case {idx}: sizes not monotone on {format_partition(p)}"
        if len(r_runs) >= 2:
            deep += 1
    return True, f"{cases} cases ({deep} with 2+ source runs)"


def _suite_embedding_functoriality(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    """Unit images compose along chains of interval-pattern embeddings."""
    for idx in range(cases):
        k = rng.randint(1, 4)
        d1 = random_descriptor(rng, 6)
        d2 = random_descriptor(rng, 6)
        e1 = d1.embedding(k)
        e2 = d2.embedding(e1.k_to)
        if e2.k_to > 400:
            continue
        comp = compose_embeddings(e2, e1)
        for _ in range(4):
            i = rng.randint(1, k)
            j = rng.randint(i, k)
            chained = {
                pair
                for a, b in image_of_unit(e1, i, j)
                for pair in image_of_unit(e2, a, b)
            }
            if chained != set(image_of_unit(comp, i, j)):
                return False, (
                    f"case {idx}: unit ({i},{j}) images disagree under "
                    f"{d1.kind} then {d2.kind} from k={k}"
                )
    return True, f"{cases} cases"


def _suite_alternating_closure(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    """The closed alternating form against explicit partitions: the
    closure law, block reads, and the standard/nest reference formulas."""
    for idx in range(cases):
        k = rng.randint(1, 4)
        s1, t1 = _random_mult(rng, 5), _random_mult(rng, 5)
        s2, t2 = _random_mult(rng, 5), _random_mult(rng, 5)
        inner = alternating(k, s1, t1)
        outer = alternating(k * s1 * t1, s2, t2)
        closed = alternating(k, s1 * s2, t1 * t2)
        if compose(outer.diag, inner.diag) != closed.diag:
            return False, f"case {idx}: closure fails at k={k} ({s1},{t1})({s2},{t2})"
        if not _is_partition_grid(closed.diag.array):
            return False, (
                f"case {idx}: the closed form at k={k} ({s1 * s2},{t1 * t2}) "
                f"is not an ordered partition"
            )
        if compose_embeddings(outer, inner) != closed:
            return False, (
                f"case {idx}: closed-form composite differs at k={k} ({s1},{t1})({s2},{t2})"
            )
        i = rng.randint(1, k)
        r = rng.randrange(closed.multiplicity)
        if closed.rank_image(i, r) != closed.diag.block(i)[r]:
            return False, f"case {idx}: rank {r} of block {i} misread at k={k}"
        mult = max(2, _random_mult(rng, 6))
        if alternating(k, mult, 1).diag != standard(k, mult).diag:
            return False, f"case {idx}: s-only pattern differs from the standard one"
        if alternating(k, 1, mult).diag != nest(k, mult).diag:
            return False, f"case {idx}: t-only pattern differs from the nest one"
    return True, f"{cases} cases"


def _suite_kronecker_bridge(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    """apply_to_matrix against explicit Kronecker products, entrywise."""
    worst = 0.0
    for idx in range(cases):
        k = rng.randint(1, 8)
        kind = rng.choice(("std", "nest", "alt"))
        m = random_upper_triangular(rng, k)
        if kind == "std":
            mult = rng.randint(1, 64 // k)
            e = standard(k, mult)
            expected = np.kron(np.eye(mult), m.entries)
        elif kind == "nest":
            mult = rng.randint(1, 64 // k)
            e = nest(k, mult)
            expected = np.kron(m.entries, np.eye(mult))
        else:
            s = rng.randint(1, 64 // k)
            t = rng.randint(1, 64 // (k * s))
            e = alternating(k, s, t)
            expected = np.kron(np.kron(np.eye(s), m.entries), np.eye(t))
        got = apply_to_matrix(e, m).entries
        err = float(np.max(np.abs(got - expected)))
        worst = max(worst, err)
        if err > 1e-12:
            return False, f"case {idx}: {kind} from k={k} off by {err:g}"
    return True, f"{cases} cases, worst error {worst:g}"


def _suite_normalizer_split(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        k = rng.randint(1, 16)
        w = random_partial_permutation(rng, k)
        d = random_diagonal_unitary(rng, k)
        v = recompose(d, w)
        d2, w2 = normalizer_split(v)
        if w2 != w:
            return False, f"case {idx}: wrong support pattern at k={k}"
        support = w.rows()
        for r in range(1, k + 1):
            want = d.phases[r - 1] if r in support else 1.0
            if abs(d2.phases[r - 1] - want) > UNIT_TOL:
                return False, f"case {idx}: phase {r} off by more than {UNIT_TOL}"
        d3, w3 = normalizer_split(recompose(d2, w2))
        if w3 != w2 or any(
            abs(a - b) > 1e-12 for a, b in zip(d3.phases, d2.phases)
        ):
            return False, f"case {idx}: canonical form not a fixed point at k={k}"
    return True, f"{cases} cases"


def _suite_level_straightening(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    worst = 0.0
    for idx in range(cases):
        k1 = rng.randint(2, 6)
        size = rng.randint(1, max(1, 12 // k1))
        p = random_ordered_partition(rng, k1 * size, k1)
        k = p.ground_size
        supports = [p.block(i) for i in range(1, k1 + 1)]
        images = []
        for i in range(1, k1):
            pairs = tuple(zip(p.block(i), p.block(i + 1)))
            w = PartialPermutationMatrix(k, pairs)
            phases = [
                random_phase(rng) if r in w.rows() else 1.0 for r in range(1, k + 1)
            ]
            images.append((DiagonalUnitary(tuple(phases)), w))
        u = straighten_level(images, supports)
        for d, w in images:
            conj = conjugate_by_diagonal(u, recompose(d, w))
            err = float(np.max(np.abs(conj.entries - w.to_matrix())))
            worst = max(worst, err)
            if err > UNIT_TOL:
                return False, f"case {idx}: residual phase {err:g} at k1={k1}"
    return True, f"{cases} cases, worst residual {worst:g}"


def _word_pool(tower: Optional[TowerSpec]) -> list[tuple[TowerSpec, ShiftWord]]:
    """Fold the CLI-supplied tower into a suite's pool when it carries
    a usable word and stays within _DIM_CAP."""
    if tower is None or not tower.is_alternating_form:
        return []
    primes = sorted(common_infinite_primes(tower))
    if not primes:
        return []
    w = ShiftWord(primes[0], 1)
    nt = normalize_for_word(tower, w)
    if nt.level_dim(3) > _DIM_CAP:
        return []
    return [(tower, w)]


def _suite_shift_well_defined(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    pool = _word_pool(tower)
    checked = 0
    for idx in range(cases):
        t, w = pool[idx] if idx < len(pool) else random_shift_instance(rng)
        nt = normalize_for_word(t, w)
        for n in range(1, 4):
            if nt.level_dim(n + 2) > _DIM_CAP:
                break
            lhs = compose(word_action(nt, w, n + 1), nt.embedding(n).diag)
            rhs = compose(nt.embedding(n + 1).diag, word_action(nt, w, n))
            if lhs != rhs:
                return False, (
                    f"case {idx}: word {w} does not commute with the "
                    f"level-{n} inclusion"
                )
            if not _is_partition_grid(lhs.array):
                return False, f"case {idx}: the level-{n} square is not an ordered partition"
            checked += 1
    return True, f"{cases} cases, {checked} level squares"


def _suite_factor_round_trip(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    pool = _word_pool(tower)
    for idx in range(cases):
        t, w = pool[idx] if idx < len(pool) else random_shift_instance(rng)
        nt = normalize_for_word(t, w)
        data = [materialize_word(nt, w, 1, 2), materialize_word(nt, w, 2, 3)]
        if rng.random() < 0.3 and nt.level_dim(3) <= _SMALL_DIM_CAP:
            data.append(materialize_word(nt, w, 1, 3))
        got = factor_automorphism(nt, data)
        if got != w:
            return False, f"case {idx}: recovered {got} from a {w} action"
    return True, f"{cases} cases"


def _suite_torsion(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        t, w, m = random_torsion_instance(rng)
        if torsion_check(t, w, m):
            return False, f"case {idx}: {w}^{m} wrongly judged trivial"
        if not torsion_check(t, ShiftWord.identity(), min(m, 3)):
            return False, f"case {idx}: identity word wrongly judged nontrivial"
    return True, f"{cases} cases"


def _suite_gelfand_agreement(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    count = max(1, cases // 10)
    supplied = []
    if tower is not None and tower.is_alternating_form:
        if all(d.kind == "nest" for d in tower.preamble + tower.cycle):
            if tower.level_dim(3) <= _K3_CAP:
                supplied.append(tower)
    # Each tower is drawn when its turn comes, so memory stays flat in
    # cases; comparisons draw nothing from rng.
    drawn = (random_interval_tower(rng) for _ in range(count - len(supplied)))
    pairs = 0
    for t in itertools.chain(supplied, drawn):
        for depth in (1, 2, 3):
            pts = list(all_points(t, depth))
            for x, y in itertools.product(pts, pts):
                coordinate, projection, _ = gelfand_readings(t, x, y)
                if coordinate is not projection:
                    return False, (
                        f"order verdicts split at depth {depth} on "
                        f"x={x.coords} y={y.coords}"
                    )
                pairs += 1
    return True, f"{count} towers, {pairs} pairs"


def _suite_gelfand_total_order(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    flips = {
        GelfandOrder.LESS: GelfandOrder.GREATER,
        GelfandOrder.GREATER: GelfandOrder.LESS,
        GelfandOrder.EQUAL: GelfandOrder.EQUAL,
    }
    for idx in range(cases):
        t = random_alternating_tower(rng, k1_max=3, max_ratio=6)
        depth = rng.randint(1, 3)
        if t.level_dim(depth) > 4096:
            depth = 1
        x = random_point(rng, t, depth)
        y = random_point(rng, t, depth)
        z = random_point(rng, t, depth)
        xy = gelfand_compare(t, x, y)
        if xy is GelfandOrder.INCOMPARABLE:
            return False, f"case {idx}: same-tail points judged incomparable"
        if gelfand_compare(t, y, x) is not flips[xy]:
            return False, f"case {idx}: antisymmetry fails"
        if (
            xy is not GelfandOrder.GREATER
            and gelfand_compare(t, y, z) is not GelfandOrder.GREATER
            and gelfand_compare(t, x, z) is GelfandOrder.GREATER
        ):
            return False, f"case {idx}: transitivity fails"
        other = GelfandPoint(x.coords, tail="elsewhere")
        if gelfand_compare(t, other, y) is not GelfandOrder.INCOMPARABLE:
            return False, f"case {idx}: distinct tails must be incomparable"
    return True, f"{cases} cases"


def _suite_relation_member(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        t = random_interval_tower(rng)
        depth = rng.randint(1, 3)
        x = random_point(rng, t, depth)
        y = random_point(rng, t, depth)
        verdict, _, member = gelfand_readings(t, x, y)
        if (member is not None) != (verdict in (GelfandOrder.LESS, GelfandOrder.EQUAL)):
            return False, f"case {idx}: witness presence disagrees with the order"
        if member is None:
            continue
        ci = projection_chain(t, x)
        cj = projection_chain(t, y)
        lvl = member.level
        if member.i != ci[lvl - 1] or member.j != cj[lvl - 1] or member.i > member.j:
            return False, f"case {idx}: witness does not match the chains"
        if x.coords[lvl:] != y.coords[lvl:]:
            return False, f"case {idx}: witness level not deep enough"
        if verdict is GelfandOrder.EQUAL and lvl != 1:
            return False, f"case {idx}: equal points must witness at the first level"
        if verdict is GelfandOrder.LESS:
            d = max(i for i in range(depth) if x.coords[i] != y.coords[i]) + 1
            if lvl != d:
                return False, f"case {idx}: witness level {lvl} is not minimal ({d})"
    return True, f"{cases} cases"


def _suite_tensor_combine(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    words = (ShiftWord.identity(), ShiftWord(2, 1), ShiftWord(1, 2))
    for idx in range(cases):
        k1 = rng.choice((1, 2))
        j1 = rng.choice((1, 2))
        phi = TowerSpec(k1, 1, k1, (), (Descriptor("alt", 2, 2),))
        psi = TowerSpec(j1, 1, j1, (), (Descriptor("alt", 2, 2),))
        tensor = TensorTower(phi, psi)
        n = rng.choice((1, 2))
        k_n, j_n = phi.level_dim(n), psi.level_dim(n)
        ident = ShiftWord.identity()
        emb = tensor.embedding(n).diag
        if combine_tensor_autos(tensor, n, [ident] * k_n, ident).action != emb:
            return False, f"case {idx}: identity words do not reproduce the inclusion"
        block_words = [rng.choice(words) for _ in range(k_n)]
        gamma = rng.choice(words)
        inner_blocks = combine_tensor_autos(tensor, n, block_words, ident).action
        outer_global = combine_tensor_autos(
            tensor, n + 1, [ident] * phi.level_dim(n + 1), gamma
        ).action
        lhs = compose(outer_global, inner_blocks)
        lifted = lift_block_words(word_action(phi, gamma, n), block_words)
        inner_global = combine_tensor_autos(tensor, n, [ident] * k_n, gamma).action
        outer_blocks = combine_tensor_autos(tensor, n + 1, list(lifted), ident).action
        rhs = compose(outer_blocks, inner_global)
        if lhs != rhs:
            return False, (
                f"case {idx}: global word {gamma} does not exchange with the "
                f"blockwise family at level {n}"
            )
        built = (emb, inner_blocks, outer_global, inner_global, outer_blocks)
        if not all(_is_partition_grid(p.array) for p in built):
            return False, f"case {idx}: a tensor action at level {n} is not an ordered partition"
        if j_n >= 2:
            for i in range(1, k_n + 1):
                for a in range(1, j_n + 1):
                    unit = (i - 1) * j_n + a
                    same = inner_blocks.block(unit) == emb.block(unit)
                    if same != block_words[i - 1].is_identity:
                        return False, (
                            f"case {idx}: unit ({i},{a}) moved iff word trivial"
                        )
    return True, f"{cases} cases"


def _suite_serialization_round_trip(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        t = random_alternating_tower(rng)
        if rng.random() < 0.3:
            k0 = t.k1
            mult = rng.randint(1, 3)
            part = Descriptor(
                "part", partition=random_ordered_partition(rng, k0 * mult, k0)
            )
            t = TowerSpec(t.k1, t.s1, t.t1, (part,), t.cycle)
        if load_tower(format_tower(t)) != t:
            return False, f"case {idx}: tower text does not round-trip"
        m, n = random_shape(rng, 16)
        p = random_ordered_partition(rng, m, n)
        if parse_partition(format_partition(p)) != p:
            return False, f"case {idx}: partition text does not round-trip"
        w = ShiftWord(rng.choice((1, 2, 3, 5)), rng.choice((1, 7, 11)))
        if parse_word(format_word(w)) != w:
            return False, f"case {idx}: word text does not round-trip"
        mat = random_upper_triangular(rng, rng.randint(1, 6))
        if np.any(parse_matrix(format_matrix(mat)).entries != mat.entries):
            return False, f"case {idx}: matrix text does not round-trip exactly"
        data = (
            FiniteAutoData(1, 2, random_ordered_partition(rng, 8, 4)),
            FiniteAutoData(2, 3, random_ordered_partition(rng, 12, 3)),
        )
        if load_auto_data(format_auto_data(data)) != data:
            return False, f"case {idx}: action records do not round-trip"
    if tower is not None and load_tower(format_tower(tower)) != tower:
        return False, "the supplied tower file does not round-trip"
    return True, f"{cases} cases"


def _suite_iso_witness(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        cyc_s = rng.choice((2, 5, 6))
        cyc_t = rng.choice((2, 3, 5))
        cyc = (Descriptor("alt", cyc_s, cyc_t),)
        cycle_primes = factorize(cyc_s).keys() | factorize(cyc_t).keys()
        free = [q for q in _PRIMES if q not in cycle_primes]
        if not free:
            continue
        p = rng.choice(free)
        e = rng.randint(1, 2)
        x = rng.choice((1, 2))
        y = rng.choice((1, 3))
        a = TowerSpec(1, 1, 1, (Descriptor("alt", x * p**e, y),), cyc)
        b = TowerSpec(1, 1, 1, (Descriptor("alt", x, y * p**e),), cyc)
        r = alternating_iso(a, b)
        if r != Fraction(p**e):
            return False, f"case {idx}: witness {r} instead of {p}^{e}"
        if alternating_iso(a, a) != Fraction(1):
            return False, f"case {idx}: self-witness must be 1"
        swapped_a = TowerSpec(1, 1, 1, (), (Descriptor("alt", cyc_s, cyc_t),))
        swapped_b = TowerSpec(1, 1, 1, (), (Descriptor("alt", cyc_t, cyc_s),))
        if cyc_s != cyc_t and alternating_iso(swapped_a, swapped_b) is not None:
            return False, f"case {idx}: swapped cycle sides wrongly isomorphic"
    return True, f"{cases} cases"


def _suite_supernatural(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for idx in range(cases):
        a = SupernaturalNumber.from_int(rng.randint(1, 5000))
        b = SupernaturalNumber.from_int(rng.randint(1, 5000))
        if multiply(a, b) != multiply(b, a):
            return False, f"case {idx}: multiplication not commutative"
        if SupernaturalNumber.parse(str(multiply(a, b))) != multiply(a, b):
            return False, f"case {idx}: text form does not round-trip"
    return True, f"{cases} cases"


def _suite_dirichlet(
    rng: random.Random, cases: int, tower: Optional[TowerSpec]
) -> SuiteResult:
    for k in range(1, 21):
        if not dirichlet_dimension_check(k):
            return False, f"identity fails at k={k}"
    return True, "k = 1..20"


SUITES: dict[str, Suite] = {
    "partition-total-order": _suite_partition_total_order,
    "partition-order-preservation": _suite_order_preservation,
    "partition-compose-associative": _suite_compose_associative,
    "prefix-restriction": _suite_prefix_restriction,
    "interleaved-runs": _suite_interleaved_runs,
    "run-size-oracle": _suite_run_size_oracle,
    "embedding-functoriality": _suite_embedding_functoriality,
    "alternating-closure": _suite_alternating_closure,
    "kronecker-bridge": _suite_kronecker_bridge,
    "normalizer-split": _suite_normalizer_split,
    "level-straightening": _suite_level_straightening,
    "shift-well-defined": _suite_shift_well_defined,
    "factor-round-trip": _suite_factor_round_trip,
    "torsion": _suite_torsion,
    "gelfand-agreement": _suite_gelfand_agreement,
    "gelfand-total-order": _suite_gelfand_total_order,
    "relation-member": _suite_relation_member,
    "tensor-combine": _suite_tensor_combine,
    "serialization-round-trip": _suite_serialization_round_trip,
    "iso-witness": _suite_iso_witness,
    "supernatural-arithmetic": _suite_supernatural,
    "dirichlet-dimension": _suite_dirichlet,
}


def run_all(
    tower: Optional[TowerSpec], seed: int, cases: int
) -> Iterator[tuple[str, bool, str]]:
    """Run every suite with a per-suite deterministic stream, yielding
    each suite's result as soon as it returns."""
    for name, fn in SUITES.items():
        rng = random.Random(f"{seed}:{name}")
        try:
            ok, detail = fn(rng, cases, tower)
        except Exception as exc:  # a crashing suite is a failing suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, ok, detail
