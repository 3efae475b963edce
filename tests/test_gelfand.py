"""Diagonal-spectrum order: coordinate form, projection form, relation."""

import itertools

import pytest

from tuhf import (
    Descriptor,
    GelfandOrder,
    GelfandPoint,
    TowerSpec,
    gelfand_compare,
    gelfand_compare_via_projections,
    parse_point,
    projection_chain,
    relation_member,
)
from tuhf.gelfand import DepthMismatch
from tuhf.partitions import OutOfRange, parse_partition


def chain_by_hand(tower, point):
    # independent recomputation: walk the image blocks, taking the
    # (x_n + 1)-th smallest element of the parent's block at each level
    i = point.coords[0] + 1
    out = [i]
    for n, x in enumerate(point.coords[1:], 1):
        block = tower.embedding(n).diag.block(i)
        i = sorted(block)[x]
        out.append(i)
    return tuple(out)


def test_parse_point():
    p = parse_point("0,1,2", tail="q")
    assert p.coords == (0, 1, 2) and p.tail == "q" and p.depth == 3


def test_coordinate_ranges_checked(two_inf_alt):
    bad = GelfandPoint((4, 0))  # level-1 ratio is 4, so coords run 0..3
    good = GelfandPoint((0, 0))
    with pytest.raises(OutOfRange):
        gelfand_compare(two_inf_alt, bad, good)


def test_lex_compare_examples(two_inf_alt):
    x, y = GelfandPoint((1, 2)), GelfandPoint((2, 1))
    assert gelfand_compare(two_inf_alt, x, y) is GelfandOrder.LESS
    assert gelfand_compare(two_inf_alt, y, x) is GelfandOrder.GREATER
    assert gelfand_compare(two_inf_alt, x, x) is GelfandOrder.EQUAL


def test_different_tails_incomparable(two_inf_alt):
    x = GelfandPoint((0, 0), tail="a")
    y = GelfandPoint((0, 0), tail="b")
    assert gelfand_compare(two_inf_alt, x, y) is GelfandOrder.INCOMPARABLE
    assert (
        gelfand_compare_via_projections(two_inf_alt, x, y)
        is GelfandOrder.INCOMPARABLE
    )


def test_depth_mismatch(two_inf_alt):
    with pytest.raises(DepthMismatch):
        gelfand_compare(two_inf_alt, GelfandPoint((0,)), GelfandPoint((0, 0)))


def test_projection_chain_convention(two_inf_alt):
    # alternating(4,2,2) image blocks at level 1: {1,2,9,10}, {3,4,11,12},
    # {5,6,13,14}, {7,8,15,16}
    assert projection_chain(two_inf_alt, GelfandPoint((0, 1))) == (1, 2)
    assert projection_chain(two_inf_alt, GelfandPoint((1, 0))) == (2, 3)
    assert projection_chain(two_inf_alt, GelfandPoint((1, 2))) == (2, 11)
    assert projection_chain(two_inf_alt, GelfandPoint((2, 1))) == (3, 6)


def test_projection_chain_matches_hand_walk(two_inf_alt, nest_tower):
    for tower in (two_inf_alt, nest_tower):
        prev = 1
        ranges = []
        for n in (1, 2, 3):
            k = tower.level_dim(n)
            ranges.append(range(k // prev))
            prev = k
        for coords in itertools.product(*ranges):
            p = GelfandPoint(coords)
            assert projection_chain(tower, p) == chain_by_hand(tower, p)


def test_projection_chain_reads_part_levels_explicitly():
    # the part level has no closed form, so its blocks are read from the
    # stored partition; the alternating levels above it are arithmetic
    part = parse_partition("m=6 n=2 blocks=1,3,4;2,5,6")
    tower = TowerSpec(
        2,
        preamble=(Descriptor("part", partition=part),),
        cycle=(Descriptor("alt", 2, 2),),
    )
    assert tower.embedding(1).st is None and tower.embedding(2).st == (2, 2)
    for coords in itertools.product(range(2), range(3), range(4)):
        i1 = coords[0] + 1
        i2 = part.block(i1)[coords[1]]
        i3 = tower.embedding(2).diag.block(i2)[coords[2]]
        assert projection_chain(tower, GelfandPoint(coords)) == (i1, i2, i3)


def test_projection_compare_agreeing_example(two_inf_alt):
    # chains (1,2) vs (2,3): both conditions say Less
    x, y = GelfandPoint((0, 1)), GelfandPoint((1, 0))
    assert gelfand_compare(two_inf_alt, x, y) is GelfandOrder.LESS
    assert gelfand_compare_via_projections(two_inf_alt, x, y) is GelfandOrder.LESS


def test_conditions_diverge_on_alternating_towers(two_inf_alt):
    # the documented split between the two order definitions: lexicographic
    # coordinates put (1,2) before (2,1), but the projection chains land at
    # indices 11 > 6 at level 2, so the chain form orders them the other way.
    # I_s (x) A (x) I_t steps interleave the blocks enough to flip later
    # coordinates; on nest-form towers (below) the two forms agree.
    x, y = GelfandPoint((1, 2)), GelfandPoint((2, 1))
    assert gelfand_compare(two_inf_alt, x, y) is GelfandOrder.LESS
    assert (
        gelfand_compare_via_projections(two_inf_alt, x, y) is GelfandOrder.GREATER
    )


def test_conditions_agree_on_interval_towers():
    towers = [
        TowerSpec(2, cycle=(Descriptor("nest", t_mult=3),)),
        TowerSpec(3, cycle=(Descriptor("nest", t_mult=2),)),
        TowerSpec(
            1,
            preamble=(Descriptor("nest", t_mult=4),),
            cycle=(Descriptor("nest", t_mult=2),),
        ),
    ]
    for tower in towers:
        prev = 1
        ranges = []
        for n in (1, 2):
            k = tower.level_dim(n)
            ranges.append(range(k // prev))
            prev = k
        points = [
            GelfandPoint(c) for c in itertools.product(*ranges)
        ]
        for x, y in itertools.product(points, points):
            assert gelfand_compare(tower, x, y) is gelfand_compare_via_projections(
                tower, x, y
            )


def test_relation_member_witness(nest_tower):
    x, y = GelfandPoint((0, 0)), GelfandPoint((0, 1))
    member = relation_member(nest_tower, x, y, 2)
    assert member is not None
    # the witness indices must be the projection chains at its level
    assert member.i == projection_chain(nest_tower, x)[member.level - 1]
    assert member.j == projection_chain(nest_tower, y)[member.level - 1]
    assert member.i <= member.j


def test_relation_member_diagonal(nest_tower):
    x = GelfandPoint((0, 1))
    member = relation_member(nest_tower, x, x, 2)
    assert member is not None
    assert member.level == 1 and member.i == member.j


def test_relation_member_absent_when_greater(nest_tower):
    x, y = GelfandPoint((0, 1)), GelfandPoint((0, 0))
    assert relation_member(nest_tower, x, y, 2) is None


def test_relation_member_absent_across_tails(nest_tower):
    x = GelfandPoint((0, 1), tail="a")
    y = GelfandPoint((0, 1), tail="b")
    assert relation_member(nest_tower, x, y, 2) is None
