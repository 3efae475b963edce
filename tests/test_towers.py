"""Tower presentations: grammar, dimensions, supernatural data, tensor."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuhf.cli
import tuhf.supernatural
import tuhf.towers

from tuhf import (
    INF,
    Descriptor,
    ShiftWord,
    SupernaturalNumber,
    TensorTower,
    TowerSpec,
    alternating,
    compose_embeddings,
    format_tower,
    load_tower,
    parse_descriptor,
    tensor_embed,
    validate_word,
)
from tuhf.errors import DomainError
from tuhf.partitions import OutOfRange
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


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("k1 4\ncycle bogus 2\n", InvalidDescriptor, "line 2: unknown descriptor kind 'bogus'"),
        (
            "# a tower\n\nk1 4\npreamble alt 2  # short\ncycle alt 2 2\n",
            InvalidDescriptor,
            "line 4: alt takes two multiplicities: 'alt 2'",
        ),
        (
            "k1 2\ncycle part 6 m=4 n=2 blocks=1,3;2,4\n",
            InvalidDescriptor,
            "line 2: declared size 6 does not match partition ground 4",
        ),
        ("k1 4\ncycle\n", InvalidDescriptor, "line 2: empty descriptor"),
        ("k1\ncycle alt 2 2\n", ParseError, "line 1: k1 needs an integer, got ''"),
        ("k1 4\n\n# t1\nt1 2 2\ncycle alt 2 2\n", ParseError, "line 4: t1 needs an integer, got '2 2'"),
    ],
    ids=["kind", "comments", "part-size", "empty", "k1-empty", "t1-two"],
)
def test_load_tower_names_the_line(text, error, message):
    with pytest.raises(error) as exc:
        load_tower(text)
    assert type(exc.value) is error and str(exc.value) == message


def test_load_tower_reads_a_tab_after_the_directive():
    tower = load_tower("k1 4\n  preamble\tstd 2\ncycle\talt 2 2\n")
    assert tower == load_tower("k1 4\npreamble std 2\ncycle alt 2 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty descriptor"),
        ("std", "std takes one multiplicity: 'std'"),
        ("nest 2 3", "nest takes one multiplicity: 'nest 2 3'"),
        ("alt 2", "alt takes two multiplicities: 'alt 2'"),
        ("part 4", "part takes a size and a partition: 'part 4'"),
        (
            "part 4 m=4 n=2 blocks=1,3 2,4",
            "bad partition in descriptor: expected three fields in partition text, got 4",
        ),
        (
            "part 4 m=4 n=2 blocks=1,x;2,4",
            "bad partition in descriptor: bad partition text: "
            "invalid literal for int() with base 10: 'x'",
        ),
        ("part 4 m=4 n=2 blocks=1,3;2,1", "bad partition in descriptor: element 1 occurs twice"),
        ("part 6 m=4 n=2 blocks=1,3;2,4", "declared size 6 does not match partition ground 4"),
        ("alt 2 x", "non-integer multiplicity in 'alt 2 x'"),
        ("part four m=4 n=2 blocks=1,3;2,4", "non-integer multiplicity in 'part four m=4 n=2 blocks=1,3;2,4'"),
        ("std 0", "multiplicities must be >= 1, got 0, 1"),
        ("bogus 2", "unknown descriptor kind 'bogus'"),
    ],
    ids=[
        "empty", "std", "nest", "alt", "part", "part-fields", "part-token", "part-invalid",
        "part-size", "alt-int", "part-int", "std-zero", "kind",
    ],
)
def test_descriptor_errors(text, message):
    with pytest.raises(InvalidDescriptor) as exc:
        parse_descriptor(text)
    assert type(exc.value) is InvalidDescriptor and str(exc.value) == message


STD2 = (Descriptor("std", 2),)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Descriptor("foo"), InvalidDescriptor, "unknown descriptor kind 'foo'"),
        (lambda: Descriptor("part"), InvalidDescriptor, "part descriptor needs a partition"),
        (lambda: Descriptor("std", 2, 3), InvalidDescriptor, "std descriptor has t multiplicity 1"),
        (lambda: Descriptor("nest", 2, 3), InvalidDescriptor, "nest descriptor has s multiplicity 1"),
        (
            lambda: Descriptor("part", 2, 1, partition=alternating(2, 1, 1).diag),
            InvalidDescriptor,
            "part descriptor carries no multiplicities",
        ),
        (
            lambda: Descriptor("std", 2, partition=alternating(2, 1, 1).diag),
            InvalidDescriptor,
            "std descriptor carries no partition",
        ),
        (lambda: TowerSpec(0, cycle=STD2), ChainMismatch, "k1 must be positive, got 0"),
        (lambda: TowerSpec(2), ChainMismatch, "a tower needs at least one cycle descriptor"),
        (lambda: TowerSpec(1, cycle=STD2).descriptor_at(0), OutOfRange, "level must be >= 1, got 0"),
        (lambda: TowerSpec(1, cycle=STD2).level_dims(0), OutOfRange, "level must be >= 1, got 0"),
        (
            lambda: TowerSpec(1, cycle=STD2).composite(3, 2),
            OutOfRange,
            "need 1 <= m <= m_to, got 3..2",
        ),
    ],
    ids=[
        "kind", "part-partition", "std-t", "nest-s", "part-mults", "std-partition", "k1",
        "no-cycle", "descriptor-level",
        "dims-level", "composite-range",
    ],
)
def test_constructor_and_level_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_part_descriptor_hands_its_partition_text_over_as_written(monkeypatch):
    seen = []
    read = tuhf.towers.parse_partition
    monkeypatch.setattr(tuhf.towers, "parse_partition", lambda text: seen.append(text) or read(text))
    d = parse_descriptor(" part  4 m=4\tn=2  blocks=1,3;2,4 ")
    assert seen == ["m=4\tn=2  blocks=1,3;2,4 "]
    assert d == parse_descriptor("part 4 m=4 n=2 blocks=1,3;2,4")


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


def _bare_tower(k1, s1, t1, preamble, cycle):
    """The tower with only level 1 in its table, assembled field by field
    so that construction neither validates the chain nor fills the table."""
    tower = TowerSpec.__new__(TowerSpec)
    fields = {"k1": k1, "s1": s1, "t1": t1, "preamble": preamble, "cycle": cycle,
              "_levels": [(k1, s1, t1)]}
    for name, value in fields.items():
        object.__setattr__(tower, name, value)
    return tower


@st.composite
def towers_and_fills(draw):
    """Tower fields with a preamble of 0-3 and a cycle of 1-3 descriptors,
    any of them ``part``, a depth, and increasing levels to fill the table
    to, ending at the depth.  A part descriptor chains where the first
    pass reaches it; in the cycle it fails on the next pass."""
    k1 = draw(st.integers(1, 4))
    s1 = draw(st.sampled_from([d for d in range(1, k1 + 1) if k1 % d == 0]))
    n_pre, n_cyc = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    descriptors, k = [], k1
    for _ in range(n_pre + n_cyc):
        kind = draw(st.sampled_from(["std", "nest", "alt", "part"]))
        s, t = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        d = {
            "std": lambda: Descriptor("std", s_mult=s),
            "nest": lambda: Descriptor("nest", t_mult=t),
            "alt": lambda: Descriptor("alt", s, t),
            "part": lambda: Descriptor("part", partition=alternating(k, s, t).diag),
        }[kind]()
        descriptors.append(d)
        k *= d.multiplicity
    fields = (k1, s1, k1 // s1, tuple(descriptors[:n_pre]), tuple(descriptors[n_pre:]))
    depth = draw(st.integers(1, n_pre + 3 * n_cyc + 2))
    stops = draw(st.lists(st.integers(1, depth), max_size=5))
    return fields, sorted(set(stops) | {depth})


def _fill(tower, stops):
    """The table's rows after level_dims(n) for each n of ``stops``, with
    the message of the ChainMismatch that stopped the fill, if one did."""
    try:
        for n in stops:
            tower.level_dims(n)
    except ChainMismatch as exc:
        return tower._levels, str(exc)
    return tower._levels, None


def _stepwise(tower, depth):
    """Rows and error of the table filled one descriptor_at step at a time."""
    rows = [(tower.k1, tower.s1, tower.t1)]
    for n in range(1, depth):
        d, (k, s, t) = tower.descriptor_at(n), rows[-1]
        try:
            k = d.k_to(k)
        except ChainMismatch as exc:
            return rows, f"level {n}: {exc}"
        r = d.ratios()
        rows.append((k, None, None) if s is None or r is None else (k, s * r[0], t * r[1]))
    return rows, None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=towers_and_fills())
def test_level_table_fills_alike_from_any_level(case):
    fields, stops = case
    depth = stops[-1]
    rows, error = _fill(_bare_tower(*fields), stops)
    # the walks start mid-preamble and mid-cycle, yet agree with one fill
    # from level 1 and with a step per descriptor
    assert (rows, error) == _fill(_bare_tower(*fields), [depth])
    assert (rows, error) == _stepwise(_bare_tower(*fields), depth)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(tuhf.cli, "_load_tower_file", lambda path: _bare_tower(*fields)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tuhf.cli.main(["tower", "show", "t.tower", "--levels", str(depth)])
    printed = [line for line in out.getvalue().splitlines() if line.startswith("level ")]
    assert printed == [
        f"level {n} k {k}" if s is None else f"level {n} k {k} s {s} t {t}"
        for n, (k, s, t) in enumerate(rows, 1)
    ]
    assert (code, err.getvalue()) == ((0, "") if error is None else (1, f"error: {error}\n"))


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


def _count_factorize(monkeypatch) -> list[int]:
    calls: list[int] = []
    factorize = tuhf.supernatural.factorize
    monkeypatch.setattr(
        tuhf.supernatural, "factorize", lambda n: calls.append(n) or factorize(n)
    )
    return calls


def test_supernatural_pair_is_kept_once_found(monkeypatch):
    text = "k1 1\npreamble alt 3 1\ncycle alt 2 2\n"
    t = load_tower(text)
    before = (hash(t), repr(t))
    calls = _count_factorize(monkeypatch)
    validate_word(t, ShiftWord(2, 1))
    first = len(calls)
    assert first > 0
    validate_word(t, ShiftWord(2, 1))
    assert len(calls) == first
    assert t.supernatural_pair() == (S({3: 1, 2: INF}), S({2: INF}))
    assert (hash(t), repr(t)) == before
    assert t == load_tower(text) and repr(t) == repr(load_tower(text))


def test_supernatural_pair_refusal_is_raised_on_every_call(monkeypatch):
    # 1000003 * 1000033: both prime factors lie past the trial limit
    t = load_tower("k1 1\ncycle alt 1000036000099 2\n")
    calls = _count_factorize(monkeypatch)
    for expected_calls in (1, 2):
        with pytest.raises(DomainError, match="^cannot factor 1000036000099 "):
            t.supernatural_pair()
        assert calls.count(1000036000099) == expected_calls


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
