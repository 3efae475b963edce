"""Ordered partitions, subpartitions, runs, and the run-size oracle."""

import ast
import hashlib
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuhf import (
    Order,
    OrderedPartition,
    OrderedSubpartition,
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
from tuhf import Descriptor, ShiftWord, TensorTower, TowerSpec, partitions
from tuhf.automorphisms import combine_tensor_autos, detect_interval_form
from tuhf.checks import enumerate_psize_instances, random_ordered_partition, random_psize_instance
from tuhf.embeddings import alternating, nest, standard, tensor_embed
from tuhf.errors import FormatError
from tuhf.partitions import (
    HypothesisViolated,
    InvalidPartition,
    OutOfRange,
    RankOrderViolation,
    ShapeMismatch,
    UnequalBlockSizes,
    _GRID,
    _VECTOR_MIN,
    _body_length,
    _join_body,
    _scan,
    _vector_body,
)


def from_blocks(*blocks):
    return OrderedPartition.from_blocks(blocks)


# -- validation ---------------------------------------------------------

def test_validate_standard_pattern():
    p = from_blocks((1, 3), (2, 4))
    assert p.block(1) == (1, 3)
    assert p.block(2) == (2, 4)


def test_validate_rank_order_violation():
    # blocks {1,4},{2,3}: at rank 2 the first block holds 4 > 3
    with pytest.raises(RankOrderViolation):
        from_blocks((1, 4), (2, 3))


def test_validate_unequal_block_sizes():
    with pytest.raises(UnequalBlockSizes):
        from_blocks((1,), (2, 3, 4))


# -- compare ------------------------------------------------------------

def test_compare_nest_below_standard():
    nest_p = from_blocks((1, 2), (3, 4))
    std_p = from_blocks((1, 3), (2, 4))
    # element 2 sits in block 1 on the left, block 2 on the right
    assert compare(nest_p, std_p) is Order.LESS
    assert compare(std_p, nest_p) is Order.GREATER
    assert compare(std_p, std_p) is Order.EQUAL


def test_compare_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compare(from_blocks((1, 2), (3, 4)), from_blocks((1, 2, 3), (4, 5, 6)))


def test_compare_total_order_exhaustive():
    # all ordered partitions of 1..6 into 2 blocks; pairwise verdicts
    # must be antisymmetric, transitive, and total
    ps = list(ordered_partitions(6, 2))
    assert len(ps) == 5  # ballot sequences: Catalan(3)
    for a, b in itertools.product(ps, ps):
        v = compare(a, b)
        back = compare(b, a)
        if v is Order.EQUAL:
            assert a == b and back is Order.EQUAL
        elif v is Order.LESS:
            assert back is Order.GREATER
        else:
            assert back is Order.LESS
    for a, b, c in itertools.product(ps, ps, ps):
        if compare(a, b) is not Order.GREATER and compare(b, c) is not Order.GREATER:
            assert compare(a, c) is not Order.GREATER


def test_enumerator_matches_brute_force():
    # independent oracle: filter every assignment of 1..6 into 3 labeled
    # blocks through the validating constructor
    found = set()
    for assign in itertools.product((1, 2, 3), repeat=6):
        try:
            found.add(OrderedPartition.from_assignment(assign, 3))
        except Exception:
            continue
    assert found == set(ordered_partitions(6, 3))


# -- restrict_prefix ----------------------------------------------------

def test_restrict_prefix_examples():
    p = from_blocks((1, 3), (2, 4))
    sub = restrict_prefix(p, 2)
    assert sub.blocks == ((1,), (2,))

    q = from_blocks((1, 2, 5, 6), (3, 4, 7, 8))
    sub = restrict_prefix(q, 5)
    assert sub.blocks == ((1, 2, 5), (3, 4))

    full = restrict_prefix(q, 8)
    assert full.blocks == ((1, 2, 5, 6), (3, 4, 7, 8))


def test_restrict_prefix_out_of_range():
    p = from_blocks((1, 3), (2, 4))
    with pytest.raises(OutOfRange):
        restrict_prefix(p, 0)
    with pytest.raises(OutOfRange):
        restrict_prefix(p, 5)


def test_subpartition_invariants_checked():
    # sizes must be weakly decreasing
    with pytest.raises(Exception):
        OrderedSubpartition(((1,), (2, 3)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: OrderedPartition.from_assignment([]), InvalidPartition, "empty assignment"),
        (lambda: OrderedPartition.from_assignment([1], 0), InvalidPartition, "bad block count 0"),
        (
            lambda: OrderedSubpartition(((2, 1),)),
            InvalidPartition,
            "block elements must be sorted and distinct",
        ),
        (lambda: OrderedSubpartition(((1, 2), (2, 3))), InvalidPartition, "element 2 occurs twice"),
        (
            lambda: ordered_partitions(5, 2),
            InvalidPartition,
            "no ordered partitions of 5 into 2 equal blocks",
        ),
        (
            lambda: psize_oracle(
                [range(1, 3)], [range(1, 2), range(2, 3)], OrderedPartition([[1, 2]])
            ),
            HypothesisViolated,
            "source run 1..2 outside 1..1",
        ),
        (
            lambda: OrderedSubpartition(((2, 3), (1,))),
            RankOrderViolation,
            "rank 1 of block 1 is not below rank 1 of block 2",
        ),
        (lambda: from_blocks((1,), (2,)).block(0), OutOfRange, "block index 0 outside 1..2"),
        (lambda: from_blocks((1,), (2,)).block(3), OutOfRange, "block index 3 outside 1..2"),
    ],
    ids=[
        "assignment-empty", "assignment-blocks", "sub-unsorted", "sub-repeat", "enumerate-shape",
        "psize-source", "sub-rank", "block-low", "block-high",
    ],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_partition_is_unequal_to_other_types():
    assert (from_blocks((1,), (2,)) == 5) is False


# -- runs ---------------------------------------------------------------

def test_runs_of_examples():
    assert runs_of((1, 3, 4, 7)) == (range(1, 2), range(3, 5), range(7, 8))
    assert runs_of(()) == ()
    assert runs_of((1, 2, 5, 6)) == (range(1, 3), range(5, 7))


def test_runs_cover_and_are_maximal():
    s = (2, 3, 4, 8, 10, 11)
    runs = runs_of(s)
    assert all(type(run) is range and run and run.step == 1 for run in runs)
    flat = [e for run in runs for e in run]
    assert flat == list(s)
    for a, b in zip(runs, runs[1:]):
        assert a.stop < b.start  # maximality: no two runs touch


def test_interleaved_runs_examples():
    std_p = from_blocks((1, 3), (2, 4))
    grid = interleaved_runs(std_p)
    assert grid == ((range(1, 2), range(2, 3)), (range(3, 4), range(4, 5)))

    nest_p = from_blocks((1, 2), (3, 4))
    assert interleaved_runs(nest_p) == ((range(1, 3), range(3, 5)),)

    alt_p = from_blocks((1, 2, 5, 6), (3, 4, 7, 8))
    assert interleaved_runs(alt_p) == (
        (range(1, 3), range(3, 5)),
        (range(5, 7), range(7, 9)),
    )


def test_interleaved_runs_with_empty_cells():
    # {1,4},{2,5},{3,6}: each block splits into singletons one apart
    p = from_blocks((1, 4), (2, 5), (3, 6))
    grid = interleaved_runs(p)
    assert grid == (
        (range(1, 2), range(2, 3), range(3, 4)),
        (range(4, 5), range(5, 6), range(6, 7)),
    )


# -- run-size oracle ----------------------------------------------------

def test_psize_single_run_trivial():
    p = from_blocks((1, 2), (3, 4))
    # R = first block, S = its two singleton... the image {1,2} is one
    # run; split it as S_1, S_2 of size 1 each
    assert psize_oracle((range(1, 2),), (range(1, 2), range(2, 3)), p) is True


def test_psize_worked_example():
    # R = ({1},{2,3}) against the nest doubling of 1..3: image runs of
    # size two chunk into S_1..S_3 with |S_1| = |S_2| = 2, and the
    # source sizes 1 <= 2 come out ordered
    theta = from_blocks((1, 2), (3, 4), (5, 6))
    r_runs = (range(1, 2), range(2, 4))
    s_runs = (range(1, 3), range(3, 5), range(5, 7))
    assert psize_oracle(r_runs, s_runs, theta) is True


def test_psize_adjacent_source_runs_are_legal():
    # {1} and {2,3} touch; the hypotheses ask for R_1 < R_2, not a gap
    theta = from_blocks((1, 2), (3, 4), (5, 6))
    psize_oracle((range(1, 2), range(2, 4)), (range(1, 3), range(3, 5), range(5, 7)), theta)


def test_psize_hypothesis_violations():
    theta = from_blocks((1, 2), (3, 4), (5, 6))
    with pytest.raises(HypothesisViolated):
        psize_oracle((), (range(1, 3),), theta)  # no source runs
    with pytest.raises(HypothesisViolated):
        # wrong target count: n runs need n+1 targets
        psize_oracle((range(1, 2), range(2, 4)), (range(1, 3), range(3, 7)), theta)
    with pytest.raises(HypothesisViolated):
        # first n target sizes must agree
        psize_oracle(
            (range(1, 2), range(2, 4)), (range(1, 2), range(2, 5), range(5, 7)), theta
        )
    with pytest.raises(HypothesisViolated):
        # image of the sources must equal the union of the targets
        psize_oracle(
            (range(1, 2), range(2, 3)), (range(1, 2), range(2, 3), range(3, 4)), theta
        )
    with pytest.raises(HypothesisViolated):
        # overlapping source runs
        psize_oracle(
            (range(1, 3), range(2, 4)), (range(1, 3), range(3, 5), range(5, 7)), theta
        )


@pytest.mark.parametrize(
    "r_runs, s_runs, message",
    [
        ((range(3, 3),), (range(1, 3), range(3, 5)), "source run range(3, 3)"),
        ((range(1, 2),), (range(1, 5, 2), range(5, 7)), "target run range(1, 5, 2)"),
    ],
    ids=["empty", "step-2"],
)
def test_psize_refuses_runs_that_are_not_nonempty_step_one_ranges(r_runs, s_runs, message):
    theta = from_blocks((1, 2), (3, 4), (5, 6))
    with pytest.raises(HypothesisViolated) as exc:
        psize_oracle(r_runs, s_runs, theta)
    assert str(exc.value) == f"{message} is not a nonempty step-1 range"


def _source_runs(r, lo=1):
    """Every tuple of disjoint, increasing, nonempty step-1 ranges in lo..r."""
    for start in range(lo, r + 1):
        for stop in range(start + 1, r + 2):
            yield (range(start, stop),)
            for rest in _source_runs(r, stop):
                yield (range(start, stop), *rest)


def _hypothesis_configurations(s_max):
    """Every (source runs, target runs, embedding blocks) that psize_oracle
    accepts, with target ground size up to s_max, straight from the
    hypotheses: the targets cut the sorted image into n runs of size h
    and a nonempty remainder."""
    for s in range(1, s_max + 1):
        for r in (d for d in range(1, s + 1) if s % d == 0):
            for p in ordered_partitions(s, r):
                for r_runs in _source_runs(r):
                    n = len(r_runs)
                    image = sorted(x for run in r_runs for e in run for x in p.blocks[e - 1])
                    for h in range(1, (len(image) - 1) // n + 1):
                        pieces = [image[j * h : (j + 1) * h] for j in range(n)] + [image[n * h :]]
                        if any(piece[-1] - piece[0] != len(piece) - 1 for piece in pieces):
                            continue
                        s_runs = tuple(range(piece[0], piece[-1] + 1) for piece in pieces)
                        try:
                            psize_oracle(r_runs, s_runs, p)
                        except HypothesisViolated:
                            continue
                        yield r_runs, s_runs, p.blocks


def test_psize_enumeration_finds_every_configuration_once():
    found = [(r_runs, s_runs, p.blocks) for r_runs, s_runs, p in enumerate_psize_instances(8)]
    expected = set(_hypothesis_configurations(8))
    assert len(found) == len(set(found)) == len(expected) == 1255
    assert set(found) == expected


def _stream_digest(instances):
    """(line count, sha256) of one line per instance, runs as (start, stop)."""
    digest, count = hashlib.sha256(), 0
    for r_runs, s_runs, p in instances:
        runs = tuple(tuple((run.start, run.stop) for run in rs) for rs in (r_runs, s_runs))
        digest.update((repr((*runs, p.blocks)) + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def test_psize_streams_are_pinned():
    assert _stream_digest(enumerate_psize_instances(8)) == (
        1255,
        "a3a2fcd5f9bc1d259b4a129f6dfbab37507a343e017f90ae92aedaf0fddb698c",
    )
    rng = random.Random(2206)
    assert _stream_digest(random_psize_instance(rng) for _ in range(500)) == (
        500,
        "51b9d68ff8583ae6943e5680f865f5bc0f0861934aa2371dd00d03eb5916f6bb",
    )
    assert rng.random() == 0.7169470355885885


# -- compose ------------------------------------------------------------

def test_compose_identity():
    p = from_blocks((1, 3), (2, 4))
    ident = from_blocks((1,), (2,))
    assert compose(p, ident) == p


def test_compose_standard_chain():
    inner = from_blocks((1, 3), (2, 4))  # standard 2 -> 4
    outer = from_blocks((1, 5), (2, 6), (3, 7), (4, 8))  # standard 4 -> 8
    assert compose(outer, inner) == from_blocks((1, 3, 5, 7), (2, 4, 6, 8))


def test_compose_nest_chain():
    inner = from_blocks((1, 2), (3, 4))
    outer = from_blocks((1, 2), (3, 4), (5, 6), (7, 8))
    assert compose(outer, inner) == from_blocks((1, 2, 3, 4), (5, 6, 7, 8))


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose(from_blocks((1, 2), (3, 4)), from_blocks((1, 2), (3, 4)))


def test_compose_associative_concrete():
    a = from_blocks((1, 2), (3, 4))
    b = from_blocks((1, 3), (2, 4), (5, 7), (6, 8))
    c = from_blocks(*[(i, i + 8) for i in range(1, 9)])
    assert compose(compose(c, b), a) == compose(c, compose(b, a))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(1, 5),
    inner_size=st.integers(1, 5),
    outer_size=st.integers(1, 6),
)
def test_compose_is_the_union_of_outer_blocks(rng, n, inner_size, outer_size):
    # block i of the composite is the union of the outer blocks that inner
    # block i names, computed here from ``blocks`` with Python sets
    k = n * inner_size
    inner = random_ordered_partition(rng, k, n)
    outer = random_ordered_partition(rng, k * outer_size, k)
    expected = tuple(
        tuple(sorted(set().union(*(outer.blocks[x - 1] for x in block))))
        for block in inner.blocks
    )
    assert compose(outer, inner).blocks == expected


# -- serialization ------------------------------------------------------

def test_format_parse_round_trip():
    p = from_blocks((1, 2, 5, 6), (3, 4, 7, 8))
    text = format_partition(p)
    assert text == "m=8 n=2 blocks=1,2,5,6;3,4,7,8"
    assert parse_partition(text) == p


def test_parse_rejects_garbage():
    with pytest.raises(Exception):
        parse_partition("m=4 n=2 blocks=1,2;3")  # sizes differ
    with pytest.raises(Exception):
        parse_partition("blocks=1,2;3,4")


# -- array storage ------------------------------------------------------

def test_array_storage_is_read_only_and_blocks_hold_python_ints():
    p = from_blocks((1, 2, 5, 6), (3, 4, 7, 8))
    assert p.array.shape == (2, 4) and p.array.dtype == _GRID
    assert not p.array.flags.writeable
    with pytest.raises(ValueError):
        p.array[0, 0] = 3
    with pytest.raises(AttributeError):
        p.array = np.zeros((2, 4), dtype=np.int64)
    assert all(type(x) is int for b in p.blocks for x in b)
    assert all(type(x) is int for x in p.block(2) + p.assignment())
    assert p == OrderedPartition(np.array([[1, 2, 5, 6], [3, 4, 7, 8]], dtype=np.int32))
    assert repr(p) == "OrderedPartition(blocks=((1, 2, 5, 6), (3, 4, 7, 8)))"


def test_input_array_is_copied():
    grid = np.array([[1, 3], [2, 4]])
    p = OrderedPartition(grid)
    grid[0, 0] = 9
    assert p.blocks == ((1, 3), (2, 4))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OrderedPartition(np.array([[1, 2**32 + 2]])), "element 4294967298 outside 1..2"),
        (
            lambda: OrderedPartition(np.array([[1, 2**32 + 2]], dtype=np.uint64)),
            "element 4294967298 outside 1..2",
        ),
        (lambda: OrderedPartition([[1, 2**31]]), "element 2147483648 outside 1..2"),
        (lambda: OrderedPartition([[2**32 + 1], [2]]), "element 4294967297 outside 1..2"),
        (lambda: parse_partition("m=2 n=1 blocks=1,4294967298"), "element 4294967298 outside 1..2"),
        (lambda: parse_partition("m=2 n=2 blocks=4294967297;2"), "element 4294967297 outside 1..2"),
    ],
    ids=["int64", "uint64", "list-2**31", "list-2**32", "text-one-block", "text-two-blocks"],
)
def test_elements_past_the_grid_dtype_are_named_not_wrapped(build, message):
    # validated before the cast to the grid dtype: cast first, 2**32 + 2
    # would wrap to the valid 2
    with pytest.raises(InvalidPartition) as exc:
        build()
    assert type(exc.value) is InvalidPartition and str(exc.value) == message


def _tensor_action():
    tower = TowerSpec(2, 1, 2, (), (Descriptor("alt", 2, 2),))
    tensor = TensorTower(tower, tower)
    return combine_tensor_autos(tensor, 1, [ShiftWord(2, 1), ShiftWord.identity()], ShiftWord(1, 2)).action


@pytest.mark.parametrize(
    "build",
    [
        lambda: OrderedPartition([[1, 3], [2, 4]]),
        lambda: OrderedPartition(np.array([[1, 3], [2, 4]], dtype=np.int64)),
        lambda: OrderedPartition(np.array([[1, 3], [2, 4]], dtype=np.int32)),
        lambda: OrderedPartition(np.array([[1, 3], [2, 4]], dtype=np.uint8)),
        lambda: OrderedPartition.from_blocks([[3, 1], [2, 4]]),
        lambda: OrderedPartition.from_assignment([1, 2, 1, 2]),
        lambda: parse_partition("m=4 n=2 blocks=1,3;2,4"),
        lambda: parse_partition(format_partition(alternating(4, 16, 8).diag)),
        lambda: alternating(3, 2, 5).diag,
        lambda: standard(3, 4).diag,
        lambda: nest(3, 4).diag,
        lambda: compose(standard(4, 2).diag, nest(2, 2).diag),
        lambda: tensor_embed(standard(2, 3), nest(3, 2)).diag,
        _tensor_action,
    ],
    ids=[
        "lists", "int64", "int32", "uint8", "from_blocks", "from_assignment", "token-text",
        "closed-form-text", "alternating", "standard", "nest", "compose", "tensor_embed",
        "combine_tensor_autos",
    ],
)
def test_every_build_path_stores_one_read_only_grid_dtype(build):
    p = build()
    assert p.array.dtype == _GRID
    assert not p.array.flags.writeable


def test_true_is_not_a_ground_element():
    # bool subclasses int, but a truth value names no element of 1..m
    with pytest.raises(InvalidPartition, match=r"^element True outside 1\.\.2$"):
        OrderedPartition(((True, 2),))
    with pytest.raises(InvalidPartition, match=r"^assignment value True outside 1\.\.1$"):
        OrderedPartition.from_assignment([True, 1], 1)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([1, 2], "block 1 is not a sequence: 1"),
        (np.array([1, 2]), "block 1 is not a sequence: 1"),
        ([(1, 2), 3], "block 2 is not a sequence: 3"),
    ],
)
def test_a_block_that_is_not_a_sequence_is_named(raw, message):
    # a flat list of elements is not a list of blocks
    with pytest.raises(InvalidPartition, match=f"^{message}$"):
        OrderedPartition(raw)


def test_assignment_round_trip_and_errors():
    for p in ordered_partitions(6, 3):
        assert OrderedPartition.from_assignment(p.assignment()) == p
    with pytest.raises(UnequalBlockSizes, match=r"^block sizes differ: \[1, 3\]$"):
        OrderedPartition.from_assignment([1, 2, 1, 1])
    with pytest.raises(UnequalBlockSizes, match=r"^block sizes differ: \[0, 2\]$"):
        OrderedPartition.from_assignment([1, 1], 2)
    with pytest.raises(InvalidPartition, match=r"^assignment value 3 outside 1\.\.2$"):
        OrderedPartition.from_assignment([1, 3], 2)
    with pytest.raises(RankOrderViolation):
        OrderedPartition.from_assignment([2, 1], 2)


def test_a_block_number_past_the_grid_dtype_is_refused():
    # every value lies in 1..block_count, but one is past int32: no
    # partition with that many blocks can be built
    with pytest.raises(InvalidPartition, match=r"^bad block count 2147483648$"):
        OrderedPartition.from_assignment([2**31], 2**31)


# -- the vectorized checks against the element-by-element scan ----------

_BAD_ELEMENTS = [0, -1, 1.5, "1", np.int64(1), True, 2**70]


def _outcome(build, *args):
    """("ok", blocks) or the raised (class, message)."""
    try:
        return "ok", build(*args).blocks
    except InvalidPartition as exc:
        return type(exc), str(exc)


def _scan_outcome(blocks):
    try:
        _scan(blocks)
    except InvalidPartition as exc:
        return type(exc), str(exc)
    return "ok", tuple(map(tuple, blocks))


def _valid_blocks(rng):
    """The blocks of a random valid partition of at most 16 elements, as lists."""
    n, size = rng.randint(1, 4), rng.randint(1, 4)
    return [list(b) for b in random_ordered_partition(rng, n * size, n).blocks]


def _position(rng, blocks):
    i = rng.randrange(len(blocks))
    return i, rng.randrange(len(blocks[i]))


_RNGS = st.randoms(use_true_random=False)
_BLOCK_MUTATIONS = [
    "none", "swap", "duplicate", "over", "bad", "ragged", "shrink", "empty", "no-blocks",
]


@st.composite
def mutated_blocks(draw):
    """Blocks of a valid partition, as lists, after at most one mutation."""
    kind, rng = draw(st.sampled_from(_BLOCK_MUTATIONS)), draw(_RNGS)
    blocks = _valid_blocks(rng)
    m = sum(map(len, blocks))
    i, j = _position(rng, blocks)
    if kind == "swap":
        i2, j2 = _position(rng, blocks)
        blocks[i][j], blocks[i2][j2] = blocks[i2][j2], blocks[i][j]
    elif kind == "duplicate":
        blocks[i][j] = rng.randint(1, m)
    elif kind == "over":
        blocks[i][j] = m + 1
    elif kind == "bad":
        blocks[i][j] = rng.choice(_BAD_ELEMENTS)
    elif kind == "ragged":
        blocks[i].append(m + 1)
    elif kind == "shrink":
        del blocks[i][j]
    elif kind == "empty":
        blocks[i] = []
    elif kind == "no-blocks":
        blocks = []
    return blocks


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(blocks=mutated_blocks())
def test_validation_agrees_with_the_scan(blocks):
    expected = _scan_outcome(blocks)
    assert _outcome(OrderedPartition, blocks) == expected
    assert _outcome(OrderedPartition, tuple(map(tuple, blocks))) == expected
    if blocks and all(type(x) is int and abs(x) < 2**63 for b in blocks for x in b):
        if len({len(b) for b in blocks}) == 1:
            assert _outcome(OrderedPartition, np.array(blocks)) == expected


def _parse_by_token(text):
    """The per-token reading of partition text: int() on every token."""
    head_m, head_n, body = (part.split("=", 1)[1] for part in text.split())
    try:
        m, n = int(head_m), int(head_n)
        blocks = [sorted(int(x) for x in group.split(",")) for group in body.split(";")]
    except ValueError as exc:
        return FormatError, f"bad partition text: {exc}"
    outcome = _scan_outcome(blocks)
    if outcome[0] != "ok":
        return outcome
    if (len(blocks) * len(blocks[0]), len(blocks)) != (m, n):
        return FormatError, (
            f"declared shape m={m} n={n} does not match blocks "
            f"(m={len(blocks) * len(blocks[0])} n={len(blocks)})"
        )
    return outcome


_BAD_TOKENS = [
    "", "0", "-1", "1.5", "x", "+1", "0x1", "1_0", "٣", "01", "1e2", str(2**70), str(2**63),
]


def _large_closed_form(rng):
    """alternating(k, s, t).diag with _VECTOR_MIN to about 2 * _VECTOR_MIN elements."""
    k, t = rng.choice([1, 2, 3, 4, 8]), rng.choice([1, 2, 3, 4, 16])
    s = rng.randint(-(-_VECTOR_MIN // (k * t)), -(-2 * _VECTOR_MIN // (k * t)))
    return alternating(k, s, t).diag


@st.composite
def mutated_texts(draw):
    """Partition text of a valid partition after at most one mutation;
    two thirds of the bases have at least _VECTOR_MIN elements, so the
    closed-form branch sees them, and half of those are closed forms,
    whose writer text the reader recognizes by its bytes."""
    kind = draw(st.sampled_from(["none", "swap", "bad", "ragged", "empty", "shape"]))
    rng = draw(_RNGS)
    base = draw(st.sampled_from(["small", "random", "closed"]))
    if base == "small":
        blocks = _valid_blocks(rng)
    elif base == "random":
        n = rng.choice([1, 2, 4, 8])
        size = rng.randint(_VECTOR_MIN // n, 2 * _VECTOR_MIN // n)
        blocks = random_ordered_partition(rng, n * size, n).blocks
    else:
        blocks = _large_closed_form(rng).blocks
    tokens = [[str(x) for x in b] for b in blocks]
    m, n = sum(map(len, tokens)), len(tokens)
    i, j = _position(rng, tokens)
    if kind == "swap":
        i2, j2 = _position(rng, tokens)
        tokens[i][j], tokens[i2][j2] = tokens[i2][j2], tokens[i][j]
    elif kind == "bad":
        tokens[i][j] = rng.choice(_BAD_TOKENS + [str(m + 1)])
    elif kind == "ragged":
        tokens[i].append(str(m + 1))
    elif kind == "empty":
        tokens[i] = [""]
    elif kind == "shape":
        m, n = rng.choice([(m + 1, n), (m, n + 1), (m, n * 2)])
    body = ";".join(",".join(b) for b in tokens)
    return f"m={m} n={n} blocks={body}"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=mutated_texts())
def test_parse_agrees_with_the_per_token_path(text):
    expected = _parse_by_token(text)
    try:
        got = "ok", parse_partition(text).blocks
    except (InvalidPartition, FormatError) as exc:
        got = type(exc), str(exc)
    assert got == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rng=_RNGS)
def test_format_parse_round_trip_property(rng):
    p = OrderedPartition(_valid_blocks(rng))
    assert parse_partition(format_partition(p)) == p


# -- the matrix writer against the joins ---------------------------------

def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


_SEEDS = st.integers(0, 2**32)


@st.composite
def partitions_around_the_threshold(draw):
    """A random ordered partition or an alternating pattern, with ground
    sizes on both sides of _VECTOR_MIN."""
    if draw(st.booleans()):
        m = draw(st.integers(_VECTOR_MIN // 2, 2 * _VECTOR_MIN))
        n = draw(st.sampled_from(_divisors(m)))
        return random_ordered_partition(random.Random(draw(_SEEDS)), m, n)
    k, s, t = draw(st.tuples(st.integers(1, 8), st.integers(1, 32), st.integers(1, 16)))
    return alternating(k, s, t).diag


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=partitions_around_the_threshold(), seed=_SEEDS)
def test_array_text_path_agrees_with_the_reference(p, seed):
    body = _join_body(p)
    assert _vector_body(p) == body
    assert format_partition(p) == f"m={p.ground_size} n={p.block_count} blocks={body}"
    assert parse_partition(format_partition(p)) == p
    m, n = p.ground_size, p.block_count
    # Blocks may be given in any order within a row.
    rng = random.Random(seed)
    rows = [rng.sample(b, len(b)) for b in p.blocks]
    shuffled = ";".join(",".join(map(str, b)) for b in rows)
    assert parse_partition(f"m={m} n={n} blocks={shuffled}") == p


def test_writer_handles_every_digit_count():
    # m = 10^d - 1 and 10^d: the elements take every count of digits up
    # to d + 1, so short tokens follow long ones at every place.  At
    # 65535 / 65536 the elements' dtype widens from uint16 to uint32.
    for m in (9, 10, 99, 100, 999, 1000, 9999, 10000, 65535, 65536, 99999, 100000, 10**6):
        # n = 1, and n = m: block size 1, so every separator is ";"
        cases = [alternating(1, 1, m).diag, alternating(m, 1, 1).diag]
        if m <= 10**5:  # at 10^6 these alone would take seconds
            cases += [
                alternating(k, s, m // (k * s)).diag
                for k, s in itertools.product((1, 3, 10, 50), (1, 2, 5, 9))
                if m % (k * s) == 0
            ]
            cases.append(random_ordered_partition(random.Random(m), m, 2 - m % 2))
        for p in cases:
            body = _vector_body(p)
            assert type(body) is str and body == _join_body(p)
            assert parse_partition(format_partition(p)) == p


def test_writer_memory_per_element_is_bounded():
    # m = 2^20, seven digits a token.  39.8 bytes an element is the peak
    # of the writer that scattered one digit place at a time; a faster
    # writer may not spend more memory than it did.
    p = alternating(2**18, 2, 2).diag
    tracemalloc.start()
    try:
        _vector_body(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 39.8 * p.ground_size, peak / p.ground_size


_BIG = alternating(4, 16, 8).diag  # m = 512 = _VECTOR_MIN, n = 4
_BIG_ROWS = [list(map(str, b)) for b in _BIG.blocks]


def _big_text(edit=None, *, m=512, n=4, before="", after=""):
    """The text of _BIG, after ``edit`` changes its rows of tokens."""
    rows = [list(r) for r in _BIG_ROWS]
    if edit is not None:
        edit(rows)
    body = ";".join(",".join(r) for r in rows)
    return f"m={m} n={n} blocks={before}{body}{after}"


def _put(i, j, token):
    return lambda rows: rows[i].__setitem__(j, token)


# (text, outcome) where the outcome is "ok" or (class, message), as the
# token path gives it.
_CORRUPTED = {
    "empty token": (_big_text(_put(1, 5, "")),
                    (FormatError, "bad partition text: invalid literal for int() with base 10: ''")),
    "leading separator": (_big_text(before=","),
                          (FormatError, "bad partition text: invalid literal for int() with base 10: ''")),
    "trailing separator": (_big_text(after=";"),
                           (FormatError, "bad partition text: invalid literal for int() with base 10: ''")),
    "plus sign": (_big_text(_put(0, 4, "+5")), "ok"),
    "space": (_big_text(_put(0, 4, " 5")),
              (FormatError, "expected three fields in partition text, got 4")),
    "minus sign": (_big_text(_put(0, 4, "-5")),
                   (InvalidPartition, "element -5 outside 1..512")),
    "19 digits": (_big_text(_put(2, 0, "1" + "0" * 18)),
                  (InvalidPartition, "element 1000000000000000000 outside 1..512")),
    "20 digits": (_big_text(_put(2, 0, "1" + "0" * 19)),
                  (InvalidPartition, "element 10000000000000000000 outside 1..512")),
    "unicode digit": (_big_text(_put(0, 2, "٣")), "ok"),
    "leading zero": (_big_text(_put(0, 4, "05")), "ok"),
    "over m": (_big_text(_put(0, 4, "513")),
               (InvalidPartition, "element 513 outside 1..512")),
    # the writer's text of the closed form but for its last byte
    "last byte": (_big_text(_put(3, -1, "513")),
                  (InvalidPartition, "element 513 outside 1..512")),
    "exponent": (_big_text(_put(0, _BIG_ROWS[0].index("100"), "1e2")),
                 (FormatError, "bad partition text: invalid literal for int() with base 10: '1e2'")),
    "tab": (_big_text(_put(0, 4, "\t5")),
            (FormatError, "expected three fields in partition text, got 4")),
    "short row": (_big_text(lambda rows: rows[1].pop()),
                  (UnequalBlockSizes, "block sizes differ: [127, 128]")),
    "long row": (_big_text(lambda rows: rows[3].append("513")),
                 (UnequalBlockSizes, "block sizes differ: [128, 129]")),
    "unsorted row": (_big_text(lambda rows: rows[2].reverse()), "ok"),
    "duplicate element": (_big_text(lambda rows: rows[3].__setitem__(7, rows[3][6])),
                          (InvalidPartition, "block elements must be sorted and distinct")),
    "swapped rows": (_big_text(lambda rows: rows.reverse()),
                     (RankOrderViolation, "rank 1 of block 1 is not below rank 1 of block 2")),
    "declared m": (_big_text(m=1024),
                   (FormatError, "declared shape m=1024 n=4 does not match blocks (m=512 n=4)")),
    "declared n": (_big_text(n=8),
                   (FormatError, "declared shape m=512 n=8 does not match blocks (m=512 n=4)")),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTED))
def test_corrupted_large_text_reads_as_the_token_path_does(case):
    text, expected = _CORRUPTED[case]
    try:
        got = parse_partition(text) == _BIG and "ok"
    except (InvalidPartition, FormatError) as exc:
        got = type(exc), str(exc)
    assert got == expected
    if len(text.split()) == 3 and expected != "ok":
        assert got == _parse_by_token(text)


@pytest.mark.parametrize("m, n", [(512, 4), (4096, 16), (65536, 256)])
def test_large_text_of_another_partition_takes_the_token_reader(m, n, monkeypatch):
    # _BIG is a closed form, which the reader takes by its bytes; a
    # random partition of its shape is not, so _closed_form declines it
    # before rendering anything and the token reader reads it, once.
    p = random_ordered_partition(random.Random(0), m, n)
    assert detect_interval_form(p) is None
    text = format_partition(p)
    returned = {"_closed_form": [], "_token_grid": []}

    def spy(name):
        real = getattr(partitions, name)

        def call(*args):
            returned[name].append(real(*args))
            return returned[name][-1]

        return call

    for name in returned:
        monkeypatch.setattr(partitions, name, spy(name))
    monkeypatch.setattr(partitions, "_vector_body", None)  # any rendering fails
    assert parse_partition(text) == p
    assert returned["_closed_form"] == [None]
    [grid] = returned["_token_grid"]
    assert np.array_equal(grid, p.array)


# alt(k, s, t) with each factor 1 in turn, and at the digit boundaries
# m = 1000, 10000, 100000 and 10^6, where one element has one digit more
# than the rest; m = 999999 has six digits throughout its top nine tenths
_CLOSED_FORMS = [
    (1, 1, 512), (1, 512, 1), (512, 1, 1), (1, 32, 16), (16, 1, 32), (16, 32, 1),
    (4, 16, 8), (1, 1, 1000), (1000, 1, 1), (8, 125, 1), (10, 10, 10), (4, 2, 125),
    (1, 1, 10000), (10000, 1, 1), (16, 25, 25), (2, 625, 8), (5, 2, 1000),
    (1, 1, 100000), (100000, 1, 1), (8, 125, 100), (27, 37, 1001), (10, 1000, 100),
]


@pytest.mark.parametrize("kst", _CLOSED_FORMS, ids=lambda kst: "alt{}_{}_{}".format(*kst))
def test_closed_form_text_round_trips_unread_and_unvalidated(
    kst, monkeypatch, trusted_builds_are_checked
):
    p = alternating(*kst).diag
    text = format_partition(p)
    monkeypatch.setattr(OrderedPartition, "_trusted", trusted_builds_are_checked)

    def refuse(*args):
        raise AssertionError("a closed form's text went past the byte comparison")

    monkeypatch.setattr(partitions, "_token_grid", refuse)
    monkeypatch.setattr(OrderedPartition, "__init__", refuse)
    assert parse_partition(text) == p


@pytest.mark.parametrize("kst", _CLOSED_FORMS[:12], ids=lambda kst: "alt{}_{}_{}".format(*kst))
def test_the_reader_returns_the_form_it_took_by_its_bytes(kst):
    p = alternating(*kst).diag
    got, form = partitions._read_partition(format_partition(p))
    assert got == p and alternating(kst[0], *form).diag == p
    if kst[0] > 1:  # one block fits every (s, t) of its size
        assert form == kst[1:]
    # the same partition read token by token, its first token "01", carries no form
    text = format_partition(p).replace("blocks=", "blocks=0")
    assert partitions._read_partition(text) == (p, None)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rng=_RNGS, data=st.data())
def test_other_bodies_are_refused_before_rendering(rng, data):
    m = rng.randint(_VECTOR_MIN, 8 * _VECTOR_MIN)
    n = data.draw(st.sampled_from([d for d in range(2, 17) if m % d == 0] or [1]))
    p = random_ordered_partition(rng, m, n)
    text = format_partition(p)
    rendered = []
    real = partitions._vector_body
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_vector_body", lambda q: rendered.append(q) or real(q))
        assert parse_partition(text) == p
    # only a closed form, every partition of one block among them, is rendered
    assert bool(rendered) == (detect_interval_form(p) is not None)


def test_a_block_1_of_another_length_is_refused_before_rendering(monkeypatch):
    # alt(2, 512, 1) with 1001 of block 1 and 998 of block 2 swapped: still
    # an ordered partition, with t + 1 = 2 opening block 2 and m - t = 1023
    # closing block 1, but block 1's text is one byte shorter.
    odd, even = (list(b) for b in alternating(2, 512, 1).diag.blocks)
    odd[odd.index(1001)], even[even.index(998)] = 998, 1001
    p = OrderedPartition.from_blocks([odd, even])
    text = format_partition(p)
    monkeypatch.setattr(partitions, "_vector_body", None)  # any rendering fails
    assert parse_partition(text) == p


@pytest.mark.parametrize("m", [1, 9, 10, 11, 99, 100, 101, 511, 512, 999, 1000, 1001, 10000, 12345])
def test_body_length_is_the_writer_length_of_1_to_m(m):
    assert _body_length(m) == len(",".join(map(str, range(1, m + 1))))


@pytest.mark.parametrize(
    "text, error, message",
    [
        # t = 1, s = 1 and block 1 ends in m - (n-1)t = 1, as alt(m, 1, 1) does
        (
            "m=1000000 n=1000000 blocks=1;2",
            FormatError,
            "declared shape m=1000000 n=1000000 does not match blocks (m=2 n=2)",
        ),
        # t = m and the one token is m, as alt(1, 1, m) does
        ("m=1000000 n=1 blocks=1000000", InvalidPartition, "element 1000000 outside 1..1"),
    ],
    ids=["many-blocks", "one-block"],
)
def test_a_short_body_under_a_large_header_builds_nothing(text, error, message, monkeypatch):
    # m sizes the closed form's arrays, so the body's length must vouch
    # for m before any of them is built or rendered
    def refuse(*args):
        raise AssertionError("an array sized by the header was built")

    for name in ("_alternating_grid", "_token_widths", "_vector_body"):
        monkeypatch.setattr(partitions, name, refuse)
    with pytest.raises(error) as exc:
        parse_partition(text)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected three fields in partition text, got 0"),
        ("m=4 n=2", "expected three fields in partition text, got 2"),
        ("m=4 n=2 blocks=1,3 ;2,4", "expected three fields in partition text, got 4"),
        # the field count comes before the keys and the integers
        ("x=4 n=2 blocks=1 3", "expected three fields in partition text, got 4"),
        ("m=x n=2 blocks=1,3;2,4 5", "expected three fields in partition text, got 4"),
        (_big_text(m="x", after=" 5"), "expected three fields in partition text, got 4"),
        ("k=4 n=2 blocks=1,3;2,4", "expected field m=..., got 'k=4'"),
        ("m=4 k=2 blocks=1,3;2,4", "expected field n=..., got 'k=2'"),
        ("m=4 n=2 block=1,3;2,4  ", "expected field blocks=..., got 'block=1,3;2,4'"),
        # the keys come before the integers
        ("k=4 n=x blocks=1,3;2,4", "expected field m=..., got 'k=4'"),
        (_big_text().replace("n=4", "k=4"), "expected field n=..., got 'k=4'"),
        ("m=x n=2 blocks=1,3;2,4", "bad partition text: invalid literal for int() with base 10: 'x'"),
        ("m=4 n= blocks=1,3;2,4", "bad partition text: invalid literal for int() with base 10: ''"),
        # the header integers come before the body's tokens
        ("m=x n=2 blocks=1,y;2,4", "bad partition text: invalid literal for int() with base 10: 'x'"),
        (_big_text(n="x"), "bad partition text: invalid literal for int() with base 10: 'x'"),
        ("m=6 n=2 blocks=1,3;2,4", "declared shape m=6 n=2 does not match blocks (m=4 n=2)"),
    ],
    ids=[
        "empty", "two-fields", "four-fields", "count-before-key", "count-before-int",
        "large-count", "key-m", "key-n", "key-blocks", "key-before-int", "large-key",
        "int-m", "int-n", "int-before-body", "large-int", "shape",
    ],
)
def test_partition_text_header_errors(text, message):
    with pytest.raises(FormatError) as exc:
        parse_partition(text)
    assert type(exc.value) is FormatError and str(exc.value) == message


def test_partition_text_reads_past_surrounding_whitespace():
    assert parse_partition(f"\t {_big_text(after='  ')}\n") == _BIG
    assert parse_partition(" m=4\tn=2   blocks=1,3;2,4 \n") == from_blocks((1, 3), (2, 4))


# every character that str.split splits at, below U+3001, and some others
_HEADER_CHARS = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + "mn=b4x"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from(_HEADER_CHARS), max_size=16))
def test_header_fields_are_the_split_fields(text):
    fields = text.split(None, 2)
    head = partitions._HEADER.match(text, 0, len(text.rstrip()))
    if len(fields) < 3:
        assert head is None
    else:
        assert head.groups() == tuple(fields[:2])
        assert text[head.end() :].rstrip() == fields[2].rstrip()


def _read_outcome(read, text):
    try:
        return "ok", read(text)
    except (InvalidPartition, FormatError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", sorted(_CORRUPTED) + ["closed form", "small"])
@pytest.mark.parametrize("prefix", ["action ", "action\t \x1f", "x"])
def test_reading_at_an_offset_reads_the_rest(case, prefix):
    text = {"closed form": _big_text(), "small": "m=4 n=2 blocks=1,3;2,4"}.get(case)
    text = text or _CORRUPTED[case][0]
    whole = _read_outcome(parse_partition, text)
    at = _read_outcome(lambda t: partitions._read_partition(prefix + t, len(prefix))[0], text)
    assert at == whole


# -- unchecked builds ----------------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src" / "tuhf"


def _calls_by_site(match):
    """(module, enclosing qualname, call) for each call in src/tuhf that
    ``match`` accepts."""
    found = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and match(child):
                found.append((module, scope, child))
            walk(child, module, inner)

    for path in sorted(_SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def test_unchecked_partition_builds_stay_at_their_named_sites():
    # A new caller of _trusted skips validation: it must be named in the
    # partitions docstring, with why its grid is valid, and here.
    trusted = _calls_by_site(
        lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "_trusted"
    )
    assert {(module, scope) for module, scope, _ in trusted} == {
        ("partitions", "compose"),
        ("partitions", "_closed_form"),
        ("embeddings", "_tensor_blocks"),
        ("embeddings", "RegularEmbedding.diag"),
    }
    # and only _trusted makes a partition without __init__
    bare = _calls_by_site(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == "__new__"
        and ast.unparse(call.func.value) == "object"
    )
    assert {
        (module, scope)
        for module, scope, call in bare
        if scope.startswith("OrderedPartition.") or "OrderedPartition" in ast.unparse(call)
    } == {("partitions", "OrderedPartition._trusted")}


# -- the one verdict type ------------------------------------------------

def test_order_is_the_only_enum():
    # Partitions, embeddings and Gelfand points share one verdict type, so
    # no module keeps a second enum or a table translating into one.
    enums, importers = set(), set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) in ("enum.Enum", "Enum") for base in node.bases
            ):
                enums.add((path.stem, node.name))
            if isinstance(node, ast.Import) and any(a.name == "enum" for a in node.names):
                importers.add(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module == "enum":
                importers.add(path.stem)
    assert enums == {("partitions", "Order")}
    assert importers == {"partitions"}


# -- numpy is bound in one place -------------------------------------------

def test_numpy_is_bound_once_and_lazily():
    # partitions binds ``np`` with ``_lazy("numpy")`` and every other module
    # imports that binding, so no module imports numpy by a statement; and
    # cli leaves the import of the seeded suites to ``check all``.
    statements = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                statements.add(path.stem)
    assert statements == set()
    lazy = _calls_by_site(lambda call: ast.unparse(call) == "_lazy('numpy')")
    assert [(module, scope) for module, scope, _ in lazy] == [("partitions", "")]

    def names(node):
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""] + [a.name for a in node.names]
        return [a.name for a in node.names]

    cli = ast.parse((_SRC / "cli.py").read_text())
    top = [node for node in cli.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not any(name.split(".")[-1] == "checks" for node in top for name in names(node))


def test_lazy_refuses_a_module_that_is_not_there():
    from tuhf.partitions import _lazy

    with pytest.raises(ModuleNotFoundError):
        _lazy("tuhf_no_such_module")
