"""Tower presentations: grammar, dimensions, supernatural data, tensor."""

import numpy as np
import pytest

from tuhf import (
    INF,
    Descriptor,
    SupernaturalNumber,
    TensorTower,
    TowerSpec,
    alternating,
    compose_embeddings,
    format_tower,
    load_tower,
    parse_descriptor,
    tensor_embed,
)
from tuhf.towers import ChainMismatch, InvalidDescriptor, NotAlternatingTower, ParseError

S = SupernaturalNumber.from_dict


# -- loading -------------------------------------------------------------

def test_load_alternating_tower():
    t = load_tower("k1 4\ncycle alt 2 2\n")
    assert [t.level_dim(n) for n in range(1, 5)] == [4, 16, 64, 256]


def test_load_pure_standard_tower():
    t = load_tower("k1 1\ncycle std 2\n")
    assert [t.level_dim(n) for n in range(1, 5)] == [1, 2, 4, 8]


def test_load_declared_split_must_factor_k1():
    # without a declared split the defaults (1, k1) always fit
    t = load_tower("k1 2\ncycle alt 3 2\n")
    assert (t.s1, t.t1) == (1, 2)
    assert [t.level_dim(n) for n in range(1, 4)] == [2, 12, 72]
    with pytest.raises(ChainMismatch):
        load_tower("k1 2\ns1 2\nt1 2\ncycle alt 3 2\n")


def test_level_table_leaves_equality_hash_and_repr_alone(two_inf_alt):
    t = two_inf_alt
    before = (hash(t), repr(t))
    assert t.level_dims(40)[0] == 4**40
    assert (hash(t), repr(t)) == before
    reloaded = load_tower(format_tower(t))
    assert t == reloaded and hash(t) == hash(reloaded)


def test_load_comments_and_blank_lines():
    t = load_tower("# the running example\n\nk1 4\ns1 2\nt1 2\ncycle alt 2 2\n")
    assert (t.k1, t.s1, t.t1) == (4, 2, 2)


def test_load_parse_errors():
    with pytest.raises(ParseError, match=r"^missing k1 line$"):
        load_tower("cycle alt 2 2\n")
    with pytest.raises(ParseError, match=r"^missing cycle line$"):
        load_tower("k1 4\n")
    with pytest.raises(ParseError, match=r"^line 2: duplicate k1 line$"):
        load_tower("k1 4\nk1 2\ncycle alt 2 2\n")
    with pytest.raises(ParseError, match=r"^line 3: duplicate s1 line$"):
        load_tower("k1 4\ns1 2\ns1 2\ncycle alt 2 2\n")
    with pytest.raises(ParseError, match=r"^line 3: duplicate t1 line$"):
        load_tower("k1 4\nt1 2\nt1 4\ncycle alt 2 2\n")
    with pytest.raises(ParseError, match=r"^line 2: s1 needs an integer, got 'two'$"):
        load_tower("k1 4\ns1 two\ncycle alt 2 2\n")
    with pytest.raises(ParseError, match=r"^line 2: unknown directive 'width'$"):
        load_tower("k1 4\nwidth 3\ncycle alt 2 2\n")
    with pytest.raises(InvalidDescriptor):
        load_tower("k1 4\ncycle bogus 2\n")


def test_load_part_descriptor_chain_checked():
    # a part step can sit in the preamble; as a cycle it cannot recur
    # (its source dimension is fixed) and load rejects it outright
    t = load_tower("k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n")
    assert [t.level_dim(n) for n in range(1, 4)] == [2, 4, 8]
    part = parse_descriptor("part 4 m=4 n=2 blocks=1,3;2,4")
    e = part.embedding(2)
    assert (e.k_from, e.k_to, e.diag) == (2, 4, part.partition)
    with pytest.raises(ChainMismatch, match=r"^part descriptor expects k=2, got 4$"):
        part.embedding(4)
    with pytest.raises(ChainMismatch, match=r"^level 2: part descriptor expects k=2, got 4$"):
        load_tower("k1 2\ncycle part 4 m=4 n=2 blocks=1,3;2,4\n")
    with pytest.raises(ChainMismatch, match=r"^level 1: part descriptor expects k=2, got 3$"):
        load_tower("k1 3\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n")


def test_round_trip_exact():
    for text in (
        "k1 4\ns1 2\nt1 2\ncycle alt 2 2",
        "k1 2\ns1 1\nt1 2\npreamble std 3\ncycle alt 2 2\ncycle alt 3 3",
        "k1 1\ncycle nest 5",
    ):
        t = load_tower(text)
        assert load_tower(format_tower(t)) == t


def test_descriptor_round_trip():
    for text in ("std 2", "nest 4", "alt 2 3", "part 4 m=4 n=2 blocks=1,3;2,4"):
        d = parse_descriptor(text)
        assert parse_descriptor(
            " ".join(filter(None, (d.kind, *map(str, _desc_args(d)))))
        ) == d


def _desc_args(d: Descriptor):
    if d.kind == "std":
        return (d.s_mult,)
    if d.kind == "nest":
        return (d.t_mult,)
    if d.kind == "alt":
        return (d.s_mult, d.t_mult)
    from tuhf import format_partition

    return (d.partition.ground_size, format_partition(d.partition))


@pytest.mark.parametrize(
    "s_mult, t_mult", [(np.int64(2), 2), (2, 2.0), (True, 2)], ids=["numpy", "float", "bool"]
)
def test_descriptor_multiplicities_are_python_ints(s_mult, t_mult):
    # a numpy multiplicity used to overflow: level_dim(40) read 0
    with pytest.raises(InvalidDescriptor, match="must be integers"):
        Descriptor("alt", s_mult, t_mult)


@pytest.mark.parametrize(
    "header",
    [(2.0, None, None), (None, None, None), (4, 2.0, None), (4, None, True)],
    ids=["k1", "no-k1", "s1", "t1"],
)
def test_tower_header_is_python_ints(header):
    # a float k1 used to give float dimensions
    with pytest.raises(ChainMismatch, match="must be an integer"):
        TowerSpec(*header, cycle=(Descriptor("alt", 2, 2),))


# -- dimensions ----------------------------------------------------------

def test_level_dims_worked_example(two_inf_alt):
    assert two_inf_alt.level_dims(3) == (64, 8, 8)


def test_level_dims_nest_convention():
    t = TowerSpec(3, cycle=(Descriptor("nest", t_mult=2),))
    assert t.level_dims(1) == (3, 1, 3)


def test_level_dims_part_tower_has_no_split():
    t = load_tower("k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n")
    k, s, tt = t.level_dims(2)
    assert k == 4 and s is None and tt is None


def test_level_dims_no_overflow_at_depth_12():
    t = TowerSpec(1, cycle=(Descriptor("alt", 6, 6),))
    k12, s12, t12 = t.level_dims(12)
    assert k12 == 36**11
    assert s12 == 6**11 and t12 == 6**11


def test_preamble_then_cycle_ratios():
    t = TowerSpec(2, s1=1, t1=2, preamble=(Descriptor("std", 3),), cycle=(Descriptor("alt", 2, 2),))
    # level 1 -> 2 uses the preamble, everything after repeats the cycle
    assert [t.level_dim(n) for n in range(1, 5)] == [2, 6, 24, 96]


# -- supernatural pair ---------------------------------------------------

def test_supernatural_pair_examples():
    t = load_tower("k1 4\ncycle alt 2 2")
    assert t.supernatural_pair() == (S({2: INF}), S({2: INF}))

    t = load_tower("k1 1\npreamble alt 3 1\ncycle alt 2 5")
    assert t.supernatural_pair() == (S({3: 1, 2: INF}), S({5: INF}))

    t = load_tower("k1 1\ncycle alt 6 6")
    assert t.supernatural_pair() == (S({2: INF, 3: INF}), S({2: INF, 3: INF}))


def test_supernatural_pair_includes_declared_split():
    t = load_tower("k1 4\ns1 2\nt1 2\ncycle alt 2 2")
    s, tt = t.supernatural_pair()
    assert s == S({2: INF}) and tt == S({2: INF})


def test_supernatural_pair_requires_alternating_form():
    t = load_tower("k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n")
    with pytest.raises(NotAlternatingTower):
        t.supernatural_pair()


# -- embeddings derived from a tower ---------------------------------------

def test_composite_matches_iterated_compose(two_inf_alt):
    t = two_inf_alt
    step12 = t.embedding(1)
    step23 = t.embedding(2)
    got = t.composite(1, 3)
    assert got == compose_embeddings(step23, step12)
    assert t.composite(2, 3) == step23


def test_embedding_levels_are_alternating(two_inf_alt):
    e = two_inf_alt.embedding(2)
    assert e.diag == alternating(16, 2, 2).diag


# -- tensor tower ---------------------------------------------------------

def test_tensor_tower_dims_and_embeddings(std_tower, nest_tower):
    tt = TensorTower(std_tower, nest_tower)
    assert [tt.level_dim(n) for n in range(1, 4)] == [1, 4, 16]
    e = tt.embedding(2)
    assert e == tensor_embed(std_tower.embedding(2), nest_tower.embedding(2))
    assert tt.composite(1, 3).diag == alternating(1, 4, 4).diag
