"""Diagonal-spectrum order: coordinate form, projection form, relation."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuhf import (
    Descriptor,
    GelfandPoint,
    Order,
    OrderedPartition,
    TowerSpec,
    gelfand_compare,
    gelfand_compare_via_projections,
    parse_point,
    projection_chain,
    relation_member,
)
from tuhf.gelfand import DepthMismatch, RelationPair, coordinate_sizes, gelfand_readings
from tuhf.partitions import OutOfRange, parse_partition

ORIGIN = GelfandPoint((0,))


def block_by_hand(tower, n, i):
    # the image block of i under the level-n embedding: its materialized
    # partition while that stays small, past that the defining set
    # {a*k*t + (i-1)*t + b : 0 <= a < s, 1 <= b <= t} of I_s (x) A_k (x) I_t
    d = tower.descriptor_at(n)
    k = tower.level_dim(n)
    if d.kind == "part" or tower.level_dim(n + 1) <= 4096:
        return tower.embedding(n).diag.block(i)
    s, t = d.ratios()
    return [a * k * t + (i - 1) * t + b for a in range(s) for b in range(1, t + 1)]


def chain_by_hand(tower, point):
    # independent recomputation: walk the image blocks, taking the
    # (x_n + 1)-th smallest element of the parent's block at each level
    i = point.coords[0] + 1
    out = [i]
    for n, x in enumerate(point.coords[1:], 1):
        i = sorted(block_by_hand(tower, n, i))[x]
        out.append(i)
    return tuple(out)


def test_parse_point():
    p = parse_point("0,1,2", tail="q")
    assert p.coords == (0, 1, 2) and p.tail == "q" and p.depth == 3


@pytest.mark.parametrize(
    "coords",
    [(1.9,), ("3", True), (0, True), (np.int64(1),), (0, None)],
    ids=["float", "str", "bool", "numpy", "none"],
)
def test_coordinates_are_python_ints(two_inf_alt, coords):
    # int() used to turn the first four into (1,), (3, 1), (0, 1) and (1,)
    # and to raise TypeError on None
    with pytest.raises(OutOfRange, match="is not an integer"):
        gelfand_compare(two_inf_alt, GelfandPoint(coords), GelfandPoint((1,) * len(coords)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GelfandPoint(()), "a point needs at least one coordinate"),
        (lambda: RelationPair(ORIGIN, ORIGIN, 0, 1, 1), "witness level must be >= 1, got 0"),
        (lambda: RelationPair(ORIGIN, ORIGIN, 1, 2, 1), "witness needs i <= j, got (2,1)"),
    ],
    ids=["no-coordinates", "witness-level", "witness-order"],
)
def test_constructor_checks(call, message):
    with pytest.raises(OutOfRange) as exc:
        call()
    assert type(exc.value) is OutOfRange and str(exc.value) == message


def test_coordinate_ranges_checked(two_inf_alt):
    bad = GelfandPoint((4, 0))  # level-1 ratio is 4, so coords run 0..3
    good = GelfandPoint((0, 0))
    with pytest.raises(OutOfRange):
        gelfand_compare(two_inf_alt, bad, good)


@pytest.mark.parametrize(
    "read",
    [gelfand_compare, gelfand_compare_via_projections, relation_member, gelfand_readings],
)
def test_errors_name_depths_first_then_x_then_y(two_inf_alt, read):
    # both points out of range: x's coordinate is named, even when y's
    # bad coordinate comes earlier; a depth mismatch comes before either
    x, y = GelfandPoint((0, 5)), GelfandPoint((-1, 0))
    with pytest.raises(OutOfRange, match=r"^coordinate 2 is 5, allowed range 0\.\.3$"):
        read(two_inf_alt, x, y)
    with pytest.raises(OutOfRange, match=r"^coordinate 1 is -1, allowed range 0\.\.3$"):
        read(two_inf_alt, y, x)
    with pytest.raises(DepthMismatch, match="^depths differ: 3 vs 2$"):
        read(two_inf_alt, GelfandPoint((9, 9, 9)), y)


def test_lex_compare_examples(two_inf_alt):
    x, y = GelfandPoint((1, 2)), GelfandPoint((2, 1))
    assert gelfand_compare(two_inf_alt, x, y) is Order.LESS
    assert gelfand_compare(two_inf_alt, y, x) is Order.GREATER
    assert gelfand_compare(two_inf_alt, x, x) is Order.EQUAL


def test_different_tails_incomparable(two_inf_alt):
    x = GelfandPoint((0, 0), tail="a")
    y = GelfandPoint((0, 0), tail="b")
    assert gelfand_compare(two_inf_alt, x, y) is Order.INCOMPARABLE
    assert (
        gelfand_compare_via_projections(two_inf_alt, x, y)
        is Order.INCOMPARABLE
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
    assert gelfand_compare(two_inf_alt, x, y) is Order.LESS
    assert gelfand_compare_via_projections(two_inf_alt, x, y) is Order.LESS


def test_conditions_diverge_on_alternating_towers(two_inf_alt):
    # the documented split between the two order definitions: lexicographic
    # coordinates put (1,2) before (2,1), but the projection chains land at
    # indices 11 > 6 at level 2, so the chain form orders them the other way.
    # I_s (x) A (x) I_t steps interleave the blocks enough to flip later
    # coordinates; on nest-form towers (below) the two forms agree.
    x, y = GelfandPoint((1, 2)), GelfandPoint((2, 1))
    assert gelfand_compare(two_inf_alt, x, y) is Order.LESS
    assert (
        gelfand_compare_via_projections(two_inf_alt, x, y) is Order.GREATER
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
    member = relation_member(nest_tower, x, y)
    assert member is not None
    # the witness indices must be the projection chains at its level
    assert member.i == projection_chain(nest_tower, x)[member.level - 1]
    assert member.j == projection_chain(nest_tower, y)[member.level - 1]
    assert member.i <= member.j


def test_relation_member_diagonal(nest_tower):
    x = GelfandPoint((0, 1))
    member = relation_member(nest_tower, x, x)
    assert member is not None
    assert member.level == 1 and member.i == member.j


def test_relation_member_absent_when_greater(nest_tower):
    x, y = GelfandPoint((0, 1)), GelfandPoint((0, 0))
    assert relation_member(nest_tower, x, y) is None


def test_relation_member_absent_across_tails(nest_tower):
    x = GelfandPoint((0, 1), tail="a")
    y = GelfandPoint((0, 1), tail="b")
    assert relation_member(nest_tower, x, y) is None


@st.composite
def ordered_partitions(draw, n, size):
    # a random word in which block i+1 never has more elements than block i,
    # so the l-th elements of consecutive blocks increase (the rank order)
    blocks = [[] for _ in range(n)]
    for x in range(1, n * size + 1):
        open_blocks = [
            i
            for i in range(n)
            if len(blocks[i]) < size and (i == 0 or len(blocks[i - 1]) > len(blocks[i]))
        ]
        blocks[draw(st.sampled_from(open_blocks))].append(x)
    return OrderedPartition.from_blocks(blocks)


CLOSED_FORMS = st.sampled_from(
    [
        Descriptor("std", 2),
        Descriptor("std", 3),
        Descriptor("nest", t_mult=2),
        Descriptor("nest", t_mult=3),
        Descriptor("alt", 2, 2),
        Descriptor("alt", 3, 2),
        Descriptor("alt", 2, 3),
    ]
)


@st.composite
def alternating_comparisons(draw):
    k1 = draw(st.integers(1, 3))
    preamble = ()
    if draw(st.booleans()):
        part = draw(ordered_partitions(k1, draw(st.integers(1, 3))))
        preamble = (Descriptor("part", partition=part),)
    preamble += tuple(draw(st.lists(CLOSED_FORMS, max_size=1)))
    cycle = tuple(draw(st.lists(CLOSED_FORMS, min_size=1, max_size=2)))
    tower = TowerSpec(k1, preamble=preamble, cycle=cycle)
    sizes = coordinate_sizes(tower, draw(st.integers(1, 4)))
    tails = draw(st.sampled_from([("", ""), ("a", "a"), ("a", "b")]))
    x, y = (
        GelfandPoint(tuple(draw(st.integers(0, size - 1)) for size in sizes), tail)
        for tail in tails
    )
    return tower, x, y


def _deep_case():
    # 5000 coordinates on a tower with a part preamble and a mixed cycle;
    # the points differ only in their last two coordinates
    part = parse_partition("m=6 n=2 blocks=1,3,4;2,5,6")
    cycle = (Descriptor("std", 2), Descriptor("alt", 2, 3), Descriptor("nest", t_mult=2))
    tower = TowerSpec(2, preamble=(Descriptor("part", partition=part),), cycle=cycle)
    sizes = coordinate_sizes(tower, 5000)
    coords = [n % size for n, size in enumerate(sizes)]
    x = GelfandPoint(tuple(coords))
    coords[-2:] = [size - 1 - c for c, size in zip(coords[-2:], sizes[-2:])]
    return tower, x, GelfandPoint(tuple(coords))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=alternating_comparisons())
@example(case=_deep_case())
def test_projection_order_is_relation_membership(case):
    # on alternating towers the projection order may differ from the
    # coordinate order; it must still be exactly membership in the relation
    tower, x, y = case
    order = gelfand_compare_via_projections(tower, x, y)
    member = relation_member(tower, x, y)
    # what ``gelfand cmp`` prints comes from one call, which must read as
    # the three public functions do
    assert gelfand_readings(tower, x, y) == (gelfand_compare(tower, x, y), order, member)
    assert projection_chain(tower, x) == chain_by_hand(tower, x)
    assert projection_chain(tower, y) == chain_by_hand(tower, y)
    # sizes read off the descriptors are the ratios of the level dimensions
    dims = [1] + [tower.level_dim(n) for n in range(1, x.depth + 1)]
    assert coordinate_sizes(tower, x.depth) == [b // a for a, b in zip(dims, dims[1:])]
    if x.tail != y.tail:
        assert order is Order.INCOMPARABLE and member is None
        return
    assert (member is not None) == (order in (Order.LESS, Order.EQUAL))
    d = max((n for n in range(x.depth) if x.coords[n] != y.coords[n]), default=0) + 1
    i, j = chain_by_hand(tower, x)[d - 1], chain_by_hand(tower, y)[d - 1]
    if x == y:
        assert order is Order.EQUAL and i == j
    else:
        assert order is (Order.LESS if i < j else Order.GREATER)
    if member is not None:
        assert (member.level, member.i, member.j) == (d, i, j)


@st.composite
def mixed_towers(draw):
    # a part preamble, then a cycle holding one std, one nest and one alt
    # level in a drawn order, maybe with a closed form between
    k1 = draw(st.integers(1, 3))
    part = draw(ordered_partitions(k1, draw(st.integers(1, 3))))
    preamble = (Descriptor("part", partition=part),) + tuple(
        draw(st.lists(CLOSED_FORMS, max_size=1))
    )
    kinds = (
        Descriptor("std", draw(st.integers(2, 3))),
        Descriptor("nest", t_mult=draw(st.integers(2, 3))),
        Descriptor("alt", draw(st.integers(1, 2)), draw(st.integers(1, 2))),
    )
    cycle = tuple(draw(st.permutations(kinds))) + tuple(draw(st.lists(CLOSED_FORMS, max_size=1)))
    return k1, preamble, cycle


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=mixed_towers(), data=st.data())
def test_step_memo_reads_alike_at_every_depth(case, data):
    # one tower object read at depths 3, then 7, then 2 answers as a fresh
    # tower does, from one memo as long as its text; reading it changes
    # neither equality, hash nor repr
    k1, preamble, cycle = case

    def fresh():
        return TowerSpec(k1, preamble=preamble, cycle=cycle)

    tower = fresh()
    memo = None
    for depth in (3, 7, 2):
        sizes = coordinate_sizes(fresh(), depth)
        x, y = (
            GelfandPoint(tuple(data.draw(st.integers(0, size - 1)) for size in sizes))
            for _ in "xy"
        )
        assert coordinate_sizes(tower, depth) == sizes
        assert gelfand_readings(tower, x, y) == gelfand_readings(fresh(), x, y)
        for p in (x, y):
            assert projection_chain(tower, p) == chain_by_hand(fresh(), p)
        memo = memo or tower._steps
        assert tower._steps is memo and len(memo) == 1 + len(preamble) + len(cycle)
    other = fresh()
    assert "_steps" in vars(tower) and "_steps" not in vars(other)
    assert tower == other and hash(tower) == hash(other) and repr(tower) == repr(other)
