"""Property tests: generated and mutated inputs driven through the CLI.

Whatever a matrix file, tower file, descriptor, auto-data record, point,
word or level range holds, a command exits 0, 1 or 2, writes one line to
stderr at most and never a traceback, and raises no warning.

Integers of 5000 digits and levels up to 10^6 are among the values
drawn.  The 5000-digit ones are 10^4999 and 5 * 10^4999, written out
as text: any of them may become a tower ratio or a word, and factoring
trial-divides, which for a 5000-digit number without small factors
takes seconds by design.
"""

import contextlib
import io
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuhf import format_auto_data, load_tower, shift_auto
from tuhf.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FEW = settings(FUZZ, max_examples=12)

HUGE = ("1" + "0" * 4999, "5" + "0" * 4999)
LEVELS = ("0", "-1", "1", "2", "3", "7", "13", "200", "100000", "1000000") + HUGE
JUNK = ("", "x", "1.5", "-", "..", "1e3", "0x10", "--", "1,2", "nan", "#")
# What a token of a tower file, descriptor or record may be replaced by.
TOKENS = LEVELS + JUNK + (
    "std", "nest", "alt", "part", "cycle", "preamble", "k1", "s1", "levels", "action",
    "m=4", "n=0", "blocks=1,3;2,x", "blocks=1,2;3", "blocks=2,1;3,4", "m=" + HUGE[0],
)

_level = st.one_of(st.integers(1, 5).map(str), st.sampled_from(LEVELS))


@st.composite
def mutated(draw, bases):
    """One of the base texts with at most one token replaced, dropped or doubled."""
    pieces = re.split(r"(\s+)", draw(st.sampled_from(bases)))
    i = 2 * (draw(st.integers(0, 10**6)) % ((len(pieces) + 1) // 2))
    how = draw(st.sampled_from(["keep", "replace", "replace", "drop", "double"]))
    if how == "replace":
        pieces[i] = draw(st.one_of(st.sampled_from(HUGE), st.sampled_from(TOKENS)))
    elif how == "drop":
        pieces[i] = ""
    elif how == "double":
        pieces[i] += " " + pieces[i]
    return "".join(pieces)


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process run, warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:  # argparse
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


# -- matrix files ---------------------------------------------------------

_CELL = st.one_of(
    st.just((0.0, 0.0)),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8)]),
    st.tuples(st.floats(width=64), st.floats(width=64)),
)
_BAD_CELLS = ["1", "a,b", "1,2,3", ",", "1e5000,0", "nan,nan", "0x1,0"]
_BAD_DIMS = ["dim", "dim x", "dim 0", "dim -1", "", "size 2"]


@st.composite
def matrix_files(draw):
    """(file text, whether a well-formed file of finite entries was kept)."""
    k = draw(st.integers(1, 4))
    cells = [[draw(_CELL) for _ in range(k)] for _ in range(k)]
    rows = [[f"{re!r},{im!r}" for re, im in row] for row in cells]
    dim = f"dim {k}"
    mutation = draw(st.sampled_from(["none", "none", "cell", "drop-row", "extra-row", "dim"]))
    if mutation == "cell":
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(
            st.sampled_from(_BAD_CELLS)
        )
    elif mutation == "drop-row":
        del rows[draw(st.integers(0, k - 1))]
    elif mutation == "extra-row":
        rows.append(rows[0])
    elif mutation == "dim":
        dim = draw(st.sampled_from(_BAD_DIMS + [f"dim {k + 1}"]))
    text = "\n".join([dim] + [" ".join(row) for row in rows]) + "\n"
    finite = all(math.isfinite(x) for row in cells for cell in row for x in cell)
    return text, mutation == "none" and finite


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Towers every level-based input is read against; each step multiplies k
# by at least 4, so deep levels are refused after a few steps.
TOWERS = (
    "k1 4\ns1 2\nt1 2\ncycle alt 2 2\n",
    "k1 2\ncycle alt 2 2\n",
    "k1 1\ncycle alt 6 6\n",
)
TOWER_FILES = TOWERS + (
    "k1 2\npreamble std 3\ncycle nest 2\ncycle alt 2 3\n",
    "k1 1\npreamble alt 3 1\ncycle alt 2 5\n",
    "k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n",
    "k1 6\ns1 3\ncycle alt 2 2\ncycle std 3\n",
)
DESCRIPTORS = (
    "std 2",
    "nest 3",
    "alt 2 3",
    "alt 1 1",
    "part 4 m=4 n=2 blocks=1,3;2,4",
    "part 6 m=6 n=2 blocks=1,2,5;3,4,6",
)
# Two shift records per tower; the second may be moved to deep levels.
RECORDS = tuple(
    format_auto_data(shift_auto(load_tower(text), 2, 1, 3)) for text in TOWERS
)
DEEP_LEVELS = ("999999 1000000", "199999 200000", "3 1000000", " ".join(HUGE))


@pytest.fixture(scope="module")
def towers(workdir):
    paths = []
    for i, text in enumerate(TOWERS):
        path = workdir / f"t{i}.tower"
        path.write_text(text)
        paths.append(path)
    return paths


@FUZZ
@given(case=matrix_files())
def test_normalizer_split_on_any_matrix_file(workdir, case):
    text, well_formed = case
    path = workdir / "v.mat"
    path.write_text(text)
    code, out, err = _cli(["normalizer", "split", "--matrix", path])
    _assert_clean(code, out, err)
    assert code in ((0, 1) if well_formed else (2,))
    if code == 0:
        assert len(out.splitlines()) == 2
    else:
        assert out == ""


@FEW
@example(text=f"k1 {HUGE[0]}\ncycle alt 2 2\n", command="show")
@example(text=f"k1 2\npreamble std {HUGE[1]}\ncycle alt {HUGE[0]} 2\n", command="show")
@given(text=mutated(TOWER_FILES), command=st.sampled_from(["show", "out-rank"]))
def test_tower_commands_on_any_tower_file(workdir, text, command):
    path = workdir / "fuzz.tower"
    path.write_text(text)
    argv = ["tower", "show", path, "--levels", 3] if command == "show" else ["out-rank", path]
    _assert_clean(*_cli(argv))


@FEW
@given(
    command=st.sampled_from(["compose", "compare", "tensor"]),
    k=st.sampled_from(("2", "2", "3", "0") + HUGE),
    a=mutated(DESCRIPTORS),
    b=mutated(DESCRIPTORS),
)
def test_embed_commands_on_any_descriptor(command, k, a, b):
    if command == "compose":
        argv = ["embed", "compose", "--k", k, a, b]
    elif command == "compare":
        argv = ["embed", "compare", "--k", k, a, b]
    else:
        argv = ["embed", "tensor", "--k", k, "--j", 2, a, b]
    _assert_clean(*_cli(argv))


@FEW
@given(
    case=st.integers(0, len(TOWERS) - 1).flatmap(
        lambda i: st.tuples(st.just(i), mutated(RECORDS[i : i + 1]))
    ),
    deep=st.sampled_from((None, None) + DEEP_LEVELS),
)
def test_factor_on_any_record(workdir, towers, case, deep):
    tower, text = case
    if deep is not None:  # the records as shifted, the second one moved deep
        text = RECORDS[tower].replace("levels 2 3", f"levels {deep}")
    path = workdir / "fuzz.auto"
    path.write_text(text)
    _assert_clean(*_cli(["factor", towers[tower], "--auto", path]))


_coordinate = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(HUGE + ("", "x", " 1")))
_point = st.lists(_coordinate, min_size=1, max_size=4).map(",".join)


@FEW
@given(x=_point, y=_point, tails=st.sampled_from([("", ""), ("a", "a"), ("a", "b")]))
def test_gelfand_cmp_on_any_point(towers, x, y, tails):
    argv = ["gelfand", "cmp", towers[0], "--x", x, "--y", y]
    _assert_clean(*_cli(argv + ["--tail-x", tails[0], "--tail-y", tails[1]]))


_word_part = st.one_of(st.integers(-1, 12).map(str), st.sampled_from(HUGE + ("x", "")))


@FEW
@example(u="4", v="3", sep="/", tower=2)
@given(
    u=_word_part,
    v=_word_part,
    sep=st.sampled_from(["/", "/", "//", ""]),
    tower=st.integers(0, len(TOWERS) - 1),
)
def test_tower_normalize_on_any_word(towers, u, v, sep, tower):
    _assert_clean(*_cli(["tower", "normalize", towers[tower], "--word", f"{u}{sep}{v}"]))


_bound = st.one_of(_level, st.sampled_from(JUNK))
_range = st.one_of(
    st.sampled_from(("1..3", "2..4")),
    st.builds("{}{}{}".format, _bound, st.sampled_from(["..", "..", ".", "-"]), _bound),
)


@FEW
@example(levels="999999..1000000", p="2", tower=0)
@example(levels="1..1000000", p="3", tower=2)
@example(levels="..".join(HUGE), p="2", tower=1)
@given(
    levels=_range,
    p=st.sampled_from(("2", "2", "2", "3", "4", "0") + HUGE),
    tower=st.integers(0, len(TOWERS) - 1),
)
def test_shift_on_any_level_range(towers, levels, p, tower):
    _assert_clean(*_cli(["shift", towers[tower], "-p", p, "--levels", levels]))
