"""End-to-end acceptance checks for the tower library.

Each test covers one headline guarantee — exact reproductions of the
worked small examples plus randomized property sweeps at fixed seeds —
and records a single PASS/FAIL line that the end-of-run scorecard
section prints, so a full run shows every verdict at a glance.  Randomized checks that
mirror a registered self-check suite call it through ``checks.SUITES``
with the case counts and caps stated here; everything else is spelled
out inline.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from tuhf.automorphisms import (
    ShiftWord,
    alternating_iso,
    dirichlet_dimension_check,
    format_word,
    normalize_for_word,
    out_rank,
    torsion_check,
    validate_word,
    word_action,
)
from tuhf.checks import (
    SUITES,
    all_points,
    enumerate_psize_instances,
    random_interval_tower,
    random_ordered_partition,
    random_psize_instance,
    random_shape,
    random_torsion_instance,
)
from tuhf.cli import main
from tuhf.embeddings import alternating, nest, standard, tensor_embed
from tuhf.gelfand import gelfand_compare, gelfand_compare_via_projections
from tuhf.partitions import compose, psize_oracle, restrict_prefix
from tuhf.towers import Descriptor, TensorTower, TowerSpec, format_tower


# One line per criterion; tests/conftest.py prints the collected lines
# as a terminal-summary section after the run, past pytest's capture.
_SCORECARD: list[str] = []
_started = 0.0


@pytest.fixture(autouse=True)
def _stamp_start() -> None:
    """Stamp each test's start, so its scorecard line can carry its elapsed time."""
    global _started
    _started = time.perf_counter()


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    """Record one scorecard line, then assert.

    The line is recorded before the assert so failures still show up in
    the end-of-run scorecard as FAIL lines.  It ends with the test's
    elapsed time up to this call.
    """
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line = f"{line}  [{detail}]"
    line = f"{line}  ({time.perf_counter() - _started:.2f} s)"
    _SCORECARD.append(line)
    assert ok, line


def test_01_outer_rank_of_doubly_two_infinite_tower(tmp_path, capsys):
    # The alternating tower with supernatural pair (2^inf, 2^inf) has
    # exactly one common infinitely-dividing prime, so its outer rank
    # is 1 — through the library and through the CLI.
    t0 = time.perf_counter()
    tower = TowerSpec(1, cycle=(Descriptor("alt", 2, 2),))
    rank = out_rank(tower)
    path = tmp_path / "two_inf.tower"
    path.write_text("k1 1\ncycle alt 2 2\n", encoding="utf-8")
    rc = main(["out-rank", str(path)])
    cli_out = capsys.readouterr().out.strip()
    elapsed = time.perf_counter() - t0
    ok = rank == 1 and rc == 0 and cli_out == "1" and elapsed < 1.0
    _report(
        1,
        "outer rank of the doubly-2-infinite alternating tower is 1 "
        "(library and CLI), under 1 s",
        ok,
        f"rank {rank}, cli {cli_out!r}, {elapsed:.3f}s",
    )


def test_02_tensor_of_standard_and_nest_towers_is_alternating():
    # Tensoring the pure-standard 2^inf tower with the pure-nest 2^inf
    # tower reproduces the alternating 2^inf tower level by level:
    # both the raw constructor identity and the tower-object identity.
    t0 = time.perf_counter()
    std_tower = TowerSpec(1, cycle=(Descriptor("std", 2),))
    nest_tower = TowerSpec(1, cycle=(Descriptor("nest", t_mult=2),))
    alt_tower = TowerSpec(1, cycle=(Descriptor("alt", 2, 2),))
    tens = TensorTower(std_tower, nest_tower)
    ok = True
    for n in range(1, 5):
        k = 2 ** (n - 1)
        if tensor_embed(standard(k, 2), nest(k, 2)) != alternating(k * k, 2, 2):
            ok = False
            break
        if tens.embedding(n) != alt_tower.embedding(n):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        2,
        "tensor of standard and nest 2-infinite towers equals the "
        "alternating tower at levels 1-4 exactly, under 1 s",
        ok,
        f"levels 1-4, {elapsed:.3f}s",
    )


def test_03_shift_factorization_round_trip():
    # 200 random (tower, word) pairs with primes <= 13 and cycle ratios
    # <= 30: materializing the word at a few level pairs and factoring
    # the result recovers the word exactly, within 30 s total.
    t0 = time.perf_counter()
    ok, detail = SUITES["factor-round-trip"](random.Random(2203), 200, None)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        3,
        "shift factorization round trip on 200 random (tower, word) "
        "pairs (primes <= 13, ratios <= 30), under 30 s",
        ok,
        f"{detail}, {elapsed:.1f}s",
    )


def test_04_composition_preserves_partition_order():
    # 500 random triples (A, B, phi) with ground size <= 24 and
    # composed ground size <= 96: composing with phi preserves the
    # order verdict between same-shape partitions exactly.
    ok, detail = SUITES["partition-order-preservation"](
        random.Random(2204), 500, None
    )
    _report(
        4,
        "composition preserves the partition order on 500 random "
        "triples (m <= 24, m' <= 96), exact",
        ok,
        detail,
    )


def _subpartition_invariants_hold(sub_blocks, source_blocks, m_prime) -> bool:
    """Independent re-statement of the ordered-subpartition invariants."""
    # Content: exactly the <= m_prime prefix of each source block, with
    # trailing empty blocks dropped and no empty block kept.
    expected = [tuple(x for x in b if x <= m_prime) for b in source_blocks]
    while expected and not expected[-1]:
        expected.pop()
    if list(sub_blocks) != expected:
        return False
    if any(len(b) == 0 for b in sub_blocks):
        return False
    # Blocks are sorted, disjoint, weakly decreasing in size, and for
    # every earlier/later pair the rank-l entries strictly increase for
    # all ranks the later block reaches.
    seen: set[int] = set()
    for b in sub_blocks:
        if list(b) != sorted(set(b)):
            return False
        if seen & set(b):
            return False
        seen |= set(b)
    for i in range(len(sub_blocks)):
        for j in range(i + 1, len(sub_blocks)):
            a, b = sub_blocks[i], sub_blocks[j]
            if len(a) < len(b):
                return False
            for rank in range(len(b)):
                if a[rank] >= b[rank]:
                    return False
    return True


def test_05_prefix_restriction_keeps_subpartition_invariants():
    # 500 random (partition, m') pairs: the prefix restriction always
    # lands in valid ordered-subpartition form, checked here against an
    # inline restatement of the invariants rather than the type's own
    # constructor validation.
    rng = random.Random(2205)
    ok = True
    detail = "500 cases"
    for idx in range(500):
        m, n_blocks = random_shape(rng, 24)
        p = random_ordered_partition(rng, m, n_blocks)
        m_prime = rng.randint(1, m)
        sub = restrict_prefix(p, m_prime)
        if not _subpartition_invariants_hold(sub.blocks, p.blocks, m_prime):
            ok = False
            detail = f"case {idx}: invariants broken at m'={m_prime}"
            break
    _report(
        5,
        "prefix restriction satisfies the ordered-subpartition "
        "invariants on 500 random (partition, m') pairs, exact",
        ok,
        detail,
    )


def test_06_run_size_oracle_exhaustive_and_random():
    # Every hypothesis-satisfying run configuration with target ground
    # size <= 12, plus 500 random larger instances (s in 13..24),
    # satisfies the run-size equality.
    ok = True
    detail = ""
    exhaustive = 0
    for r_runs, s_runs, emb in enumerate_psize_instances(12):
        exhaustive += 1
        if not psize_oracle(r_runs, s_runs, emb):
            ok = False
            detail = f"exhaustive instance {exhaustive} failed"
            break
    randoms = 0
    if ok:
        rng = random.Random(2206)
        for idx in range(500):
            r_runs, s_runs, emb = random_psize_instance(rng)
            randoms += 1
            if not psize_oracle(r_runs, s_runs, emb):
                ok = False
                detail = f"random instance {idx} failed"
                break
    if ok:
        detail = f"{exhaustive} exhaustive + {randoms} random instances"
    _report(
        6,
        "run-size oracle true on every configuration with s <= 12 "
        "plus 500 random larger instances, exact",
        ok,
        detail,
    )


def test_07_matrix_application_matches_kronecker_products():
    # 100 random upper-triangular matrices pushed through standard,
    # nest, and alternating embeddings with k_to <= 64 agree entrywise
    # with the explicit Kronecker constructions within 1e-12.
    ok, detail = SUITES["kronecker-bridge"](random.Random(2207), 100, None)
    _report(
        7,
        "apply_to_matrix matches explicit Kronecker products within "
        "1e-12 on 100 random matrices (k_to <= 64)",
        ok,
        detail,
    )


def test_08_normalizer_split_recovers_and_is_canonical():
    # 200 random diagonal-times-partial-permutation products with
    # k <= 16: the split recovers the pattern exactly, the phases on
    # the support within 1e-9, and the canonical form is a fixed point
    # of split-then-recompose.
    ok, detail = SUITES["normalizer-split"](random.Random(2208), 200, None)
    _report(
        8,
        "normalizer split recovers the pattern exactly and support "
        "phases within 1e-9 on 200 random pairs (k <= 16); canonical "
        "form unique",
        ok,
        detail,
    )


def test_09_level_straightening_kills_residual_phases():
    # 100 random phase-decorated level images with k1 <= 6: conjugating
    # by the straightening diagonal leaves genuine 0/1 partial
    # permutation matrices within 1e-9.
    ok, detail = SUITES["level-straightening"](random.Random(2209), 100, None)
    _report(
        9,
        "level straightening leaves 0/1 partial permutations within "
        "1e-9 on 100 random images (k1 <= 6)",
        ok,
        detail,
    )


def test_10_shift_commutes_with_inclusions_levels_one_to_four():
    # 50 random alternating towers whose cycle steps are all divisible
    # by the chosen prime on both sides: the prime-shift word commutes
    # with the tower inclusions as an exact partition identity at
    # levels 1 through 4.
    rng = random.Random(2210)
    two_sided = [(1, 1), (1, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    ok = True
    detail = ""
    squares = 0
    for idx in range(50):
        p = 2 if rng.random() < 0.75 else 3
        length = 1 if rng.random() < 0.7 else 2
        menu = two_sided if (p == 2 and length == 1) else [(1, 1)]
        pairs = [rng.choice(menu) for _ in range(length)]
        cycle = tuple(Descriptor("alt", p * a, p * b) for a, b in pairs)
        ratios = [p * p * a * b for a, b in pairs]
        k1 = rng.choice((1, 2, 4))
        projected = k1
        for step in range(5):
            projected *= ratios[step % length]
        if projected > 600_000:
            k1 = 1
        tower = TowerSpec(k1, cycle=cycle)
        w = ShiftWord(p, 1) if rng.random() < 0.5 else ShiftWord(1, p)
        validate_word(tower, w)
        nt = normalize_for_word(tower, w)
        for n in range(1, 5):
            lhs = compose(word_action(nt, w, n + 1), nt.embedding(n).diag)
            rhs = compose(nt.embedding(n + 1).diag, word_action(nt, w, n))
            if lhs != rhs:
                ok = False
                detail = (
                    f"tower {idx}: word {format_word(w)} fails the "
                    f"level-{n} square"
                )
                break
            squares += 1
        if not ok:
            break
    if ok:
        detail = f"50 towers, {squares} level squares"
    _report(
        10,
        "shift words commute with tower inclusions at levels 1-4 on "
        "50 random alternating towers, exact partition equality",
        ok,
        detail,
    )


def test_11_shift_words_are_torsion_free_at_finite_level():
    # 100 random non-identity words with power m <= 6 never report
    # torsion; the identity word always does.
    rng = random.Random(2211)
    ok = True
    detail = ""
    identity_checked = 0
    for idx in range(100):
        tower, w, m = random_torsion_instance(rng)
        if torsion_check(tower, w, m):
            ok = False
            detail = f"case {idx}: word {format_word(w)}^{m} reported trivial"
            break
        if idx % 10 == 0:
            if not torsion_check(tower, ShiftWord(1, 1), m):
                ok = False
                detail = f"case {idx}: identity word reported non-trivial"
                break
            identity_checked += 1
    if ok:
        detail = f"100 non-identity cases + {identity_checked} identity checks"
    _report(
        11,
        "no torsion: 100 random non-identity words (m <= 6) report "
        "false and the identity word reports true, exact",
        ok,
        detail,
    )


def test_12_isomorphism_witness_verdicts():
    # The worked isomorphic pair admits the rational witness 3, and the
    # towers with swapped supernatural pairs (2^inf, 3^inf) versus
    # (3^inf, 2^inf) admit no witness at all.
    iso_a = TowerSpec(
        1,
        preamble=(Descriptor("alt", 3, 1),),
        cycle=(Descriptor("alt", 2, 5),),
    )
    iso_b = TowerSpec(
        1,
        preamble=(Descriptor("alt", 1, 3),),
        cycle=(Descriptor("alt", 2, 5),),
    )
    swapped_a = TowerSpec(1, cycle=(Descriptor("alt", 2, 3),))
    swapped_b = TowerSpec(1, cycle=(Descriptor("alt", 3, 2),))
    witness = alternating_iso(iso_a, iso_b)
    absent = alternating_iso(swapped_a, swapped_b)
    ok = witness == Fraction(3) and absent is None
    _report(
        12,
        "isomorphism witness: the worked pair gives r = 3 and the "
        "swapped-pair towers give none, exact",
        ok,
        f"witness {witness}, swapped {absent}",
    )


def test_13_point_order_conditions_agree_on_interval_towers():
    # On 10 distinct nest-form towers with k_3 <= 64, the coordinate
    # (lexicographic) order and the projection-chain order return the
    # same verdict for every same-depth pair of points, depths 1-3.
    rng = random.Random(2213)
    towers = []
    seen: set[str] = set()
    while len(towers) < 10:
        t = random_interval_tower(rng)
        key = format_tower(t)
        if key not in seen:
            seen.add(key)
            towers.append(t)
    ok = True
    detail = ""
    pairs = 0
    for t_idx, tower in enumerate(towers):
        for depth in (1, 2, 3):
            pts = list(all_points(tower, depth))
            for x in pts:
                for y in pts:
                    lex = gelfand_compare(tower, x, y)
                    proj = gelfand_compare_via_projections(tower, x, y)
                    if lex is not proj:
                        ok = False
                        detail = (
                            f"tower {t_idx} depth {depth}: {x.coords} vs "
                            f"{y.coords} -> {lex.name} / {proj.name}"
                        )
                        break
                    pairs += 1
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        detail = f"10 towers, {pairs} ordered pairs"
    _report(
        13,
        "lexicographic and projection-chain point orders agree on "
        "exhaustive depth <= 3 pairs for 10 towers (k_3 <= 64), exact",
        ok,
        detail,
    )


def test_14_dirichlet_dimension_identity():
    # At every matrix size k <= 20 the triangular algebra plus its
    # adjoint spans with the dimension the identity predicts.
    bad = [k for k in range(1, 21) if not dirichlet_dimension_check(k)]
    _report(
        14,
        "Dirichlet dimension identity holds for every k <= 20, exact",
        not bad,
        "k = 1..20" if not bad else f"fails at k = {bad}",
    )
