"""End-to-end runs of every subcommand through main()."""

import contextlib
import decimal
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuhf.automorphisms
import tuhf.checks
import tuhf.cli
import tuhf.embeddings
import tuhf.errors
import tuhf.gelfand
import tuhf.partitions
import tuhf.towers
from tuhf.cli import main
from tuhf.errors import _content_lines
from tuhf.towers import Descriptor, TowerSpec

TWO_INF = "k1 4\ns1 2\nt1 2\ncycle alt 2 2\n"
NEST = "k1 2\ncycle nest 3\n"
ISO_A = "k1 1\npreamble alt 3 1\ncycle alt 2 5\n"
ISO_B = "k1 1\npreamble alt 1 3\ncycle alt 2 5\n"
SWAPPED_A = "k1 1\ncycle alt 2 3\n"
SWAPPED_B = "k1 1\ncycle alt 3 2\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def _src_env():
    """The environment with src first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tower_show(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "tower", "show", f, "--levels", "3")
    assert code == 0
    assert out.splitlines() == [
        "level 1 k 4 s 2 t 2",
        "level 2 k 16 s 4 t 4",
        "level 3 k 64 s 8 t 8",
        "s-side 2^inf",
        "t-side 2^inf",
    ]


def test_tower_show_non_alternating(files, capsys):
    f = files(
        "p.tower", "k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n"
    )
    code, out, _ = run(capsys, "tower", "show", f, "--levels", "2")
    assert code == 0
    lines = out.splitlines()
    # the declared level-1 split is file data; the part step loses it
    assert lines[0] == "level 1 k 2 s 1 t 2"
    assert lines[1] == "level 2 k 4"
    assert lines[-1] == "supernatural pair undefined (tower leaves interval form)"


def test_tower_show_refuses_before_the_first_level(files, capsys):
    # (10^12 + 39)^2 has no prime factor below the trial limit, so the
    # supernatural pair is refused, and it is read before any level
    f = files("big.tower", "k1 1\ncycle alt 1000000000078000000001521 2\n")
    code, out, err = run(capsys, "tower", "show", f, "--levels", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error: cannot factor 1000000000078000000001521 by trial division up to 1000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("out-rank", "{f}"),
        ("tower", "show", "{f}", "--levels", "100000"),
        ("check", "all", "{f}", "--cases", "1"),
    ],
    ids=["out-rank", "tower-show", "check-all"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(files, argv):
    # as under `| head`: the reader is gone before the first write
    f = files("two.tower", TWO_INF)
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-B", "-m", "tuhf.cli", *(a.format(f=f) for a in argv)],
            stdout=write, stderr=subprocess.PIPE, env=_src_env(), timeout=60,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


def test_tower_normalize_prime(files, capsys):
    f = files("t.tower", "k1 1\ncycle alt 4 2\ncycle alt 1 2\n")
    code, out, _ = run(capsys, "tower", "normalize", f, "-p", "2")
    assert code == 0
    # one pass of the two-step cycle is grouped so every step carries p
    assert "cycle alt 4 4" in out


def test_tower_normalize_rejects_finite_prime(files, capsys):
    f = files("nest.tower", NEST)
    code, _, err = run(capsys, "tower", "normalize", f, "-p", "3")
    assert code == 1
    assert "not infinite" in err


def test_out_rank(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "out-rank", f)
    assert code == 0 and out.strip() == "1"


def test_iso_self(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "iso", f, f)
    assert code == 0 and out.strip() == "isomorphic, r = 1/1"


def test_iso_worked_pair(files, capsys):
    a, b = files("a.tower", ISO_A), files("b.tower", ISO_B)
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0 and out.strip() == "isomorphic, r = 3/1"


def test_iso_negative(files, capsys):
    a, b = files("a.tower", SWAPPED_A), files("b.tower", SWAPPED_B)
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0 and out.strip() == "not isomorphic"


def test_shift_then_factor(files, capsys, tmp_path):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..3")
    assert code == 0
    assert out.splitlines()[0] == "levels 1 2"
    assert "blocks=1,5,9,13;" in out.splitlines()[1]

    auto = tmp_path / "shift2.auto"
    auto.write_text(out)
    code, out, _ = run(capsys, "factor", f, "--auto", str(auto))
    assert code == 0
    assert out == (
        "levels 1 2 interval s=4 t=1\n"
        "levels 2 3 interval s=4 t=1\n"
        "word 2/1\n"
        "status consistent\n"
    )


def test_factor_detects_each_informative_record_once(files, capsys, monkeypatch):
    shapes = []
    real = tuhf.automorphisms.detect_interval_form

    def spy(q):
        shapes.append(q.block_count)
        return real(q)

    monkeypatch.setattr(tuhf.automorphisms, "detect_interval_form", spy)
    # level 1 has k = 1, so the first of the three records is uninformative
    f = files("one.tower", "k1 1\ncycle alt 2 2\n")
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..4")
    auto = files("one.auto", record)
    code, out, _ = run(capsys, "factor", f, "--auto", auto)
    assert code == 0 and out.splitlines()[0] == "levels 1 2 uninformative (k = 1)"
    assert shapes == [4, 16]


def test_factor_takes_a_closed_form_record_by_its_bytes_alone(files, capsys, monkeypatch):
    # m = 4096 and 16384: each record is recognized once, by the byte
    # comparison, and its form reaches the factorization
    f = files("one.tower", "k1 1\ncycle alt 2 2\n")
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "6..8")
    auto = files("deep.auto", record)
    detected, grids, rendered = [], [], []
    real_grid, real_body = tuhf.partitions._alternating_grid, tuhf.partitions._vector_body

    def grid(*kst):
        grids.append((kst, real_grid(*kst)))
        return grids[-1][1]

    def body(p):
        rendered.append(p)
        return real_body(p)

    monkeypatch.setattr(tuhf.automorphisms, "detect_interval_form", detected.append)
    monkeypatch.setattr(tuhf.partitions, "_alternating_grid", grid)
    monkeypatch.setattr(tuhf.partitions, "_vector_body", body)
    code, out, _ = run(capsys, "factor", f, "--auto", auto)
    assert code == 0 and out.splitlines()[-2:] == ["word 2/1", "status consistent"]
    assert detected == []
    assert [kst for kst, _ in grids] == [(1024, 4, 1), (4096, 4, 1)]
    assert len(rendered) == 2
    assert all(p.array is g for p, (_, g) in zip(rendered, grids))


def test_factor_on_part_tower_names_the_missing_ratios(files, capsys):
    f = files("two.tower", TWO_INF)
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..3")
    auto = files("two.auto", record)
    part = files(
        "p.tower", "k1 4\npreamble part 8 m=8 n=4 blocks=1,5;2,6;3,7;4,8\ncycle std 2\n"
    )
    code, out, err = run(capsys, "factor", part, "--auto", auto)
    assert code == 1 and out == ""
    assert err == "error: factorization needs s/t ratios at every level\n"


def test_factor_mis_shaped_record_names_the_tower_shape(files, capsys):
    small = files("small.tower", "k1 2\ncycle alt 2 2\n")
    _, record, _ = run(capsys, "shift", small, "-p", "2", "--levels", "1..3")
    auto = files("small.auto", record)
    code, _, err = run(capsys, "factor", files("two.tower", TWO_INF), "--auto", auto)
    assert code == 1
    assert err == "error: datum at levels 1..2 has shape 2|8, tower expects 4|16\n"


@pytest.mark.parametrize(
    "action, message",
    [
        ("m=4 n=1 blocks=1,,3,4", "bad partition text: invalid literal for int() with base 10: ''"),
        ("m=4 blocks=1,2;3,4", "expected three fields in partition text, got 2"),
        ("m=4 n=2 blocks=1,2;3,1", "element 1 occurs twice"),
    ],
    ids=["empty-token", "missing-field", "duplicate"],
)
def test_factor_names_the_line_of_a_bad_action(files, capsys, action, message):
    # a text error of the partition and an invalid partition both carry the line
    f = files("two.tower", TWO_INF)
    auto = files("bad.auto", f"# one record\nlevels 1 2\naction {action}\n")
    code, out, err = run(capsys, "factor", f, "--auto", auto)
    assert (code, out, err) == (2, "", f"error: line 3: {message}\n")


def test_factor_reads_each_action_through_parse_partition(files, capsys, monkeypatch):
    # _read_partition is parse_partition's reader, which takes the line
    # and the offset after the directive, so it reads the action in place
    texts = []
    real = tuhf.automorphisms._read_partition

    def spy(text, start=0):
        texts.append(text[start:])
        return real(text, start)

    monkeypatch.setattr(tuhf.automorphisms, "_read_partition", spy)
    f = files("two.tower", TWO_INF)
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..3")
    code, _, _ = run(capsys, "factor", f, "--auto", files("two.auto", record))
    assert code == 0
    # the text after the directive, as written
    actions = [line for line in record.splitlines() if line.startswith("action ")]
    assert texts == [line[len("action "):] for line in actions] and len(texts) == 2


def test_shift_builds_no_level_past_the_range(files, capsys, monkeypatch):
    requested = []
    real = tuhf.automorphisms.word_action

    def spy(tower, w, n):
        requested.append(n)
        return real(tower, w, n)

    monkeypatch.setattr(tuhf.automorphisms, "word_action", spy)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "shift", f, "-p", "2", "--levels", "2..4")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("levels")] == [
        "levels 2 3",
        "levels 3 4",
    ]
    assert min(requested) == 2 and max(requested) < 4


def test_shift_refuses_the_whole_range_before_building_a_level(files, capsys, monkeypatch):
    requested = []
    real = tuhf.automorphisms.word_action

    def spy(tower, w, n):
        requested.append(n)
        return real(tower, w, n)

    monkeypatch.setattr(tuhf.automorphisms, "word_action", spy)
    monkeypatch.setattr(tuhf.embeddings, "MAX_GROUND", 64)
    f = files("two.tower", TWO_INF)
    code, out, err = run(capsys, "shift", f, "-p", "2", "--levels", "1..30")
    assert (code, out, requested) == (1, "", [])
    assert err == "error: refusing to build a partition of 256 elements (limit 64)\n"
    # the budget walk stops at the first level over the limit
    code, out, err = run(capsys, "shift", f, "-p", "2", "--levels", "1..1000000000")
    assert (code, out, requested) == (1, "", [])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("shift",), "the following arguments are required: file, -p/--prime"),
        (("tower", "show", "t", "--levels", "x"), "argument --levels: invalid int value: 'x'"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
    ],
    ids=["missing", "bad-int", "bad-command"],
)
def test_argument_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shift", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tuhf shift [-h] -p PRIME")


def test_gelfand_cmp_checks_and_walks_once(files, capsys, monkeypatch):
    calls = {"check": 0, "walks": [], "step": 0, "embed": 0, "memo": []}
    real_check, real_walk = tuhf.gelfand._check, tuhf.gelfand._walk
    real_step, real_steps = tuhf.gelfand._alternating_step, TowerSpec.__dict__["_steps"].func
    real_embedding = Descriptor.embedding
    real_init = tuhf.embeddings.RegularEmbedding.__init__

    def check(*args):
        calls["check"] += 1
        return real_check(*args)

    def walk(rows, xs, ys, depth):
        calls["walks"].append(depth)
        return real_walk(rows, xs, ys, depth)

    def step(*args):
        calls["step"] += 1
        return real_step(*args)

    def embedding(*args):
        calls["embed"] += 1
        return real_embedding(*args)

    def init(*args):
        calls["embed"] += 1
        return real_init(*args)

    def steps(self):
        calls["memo"].append(self)
        return real_steps(self)

    memo = functools.cached_property(steps)
    memo.__set_name__(TowerSpec, "_steps")
    monkeypatch.setattr(tuhf.gelfand, "_check", check)
    monkeypatch.setattr(tuhf.gelfand, "_walk", walk)
    monkeypatch.setattr(tuhf.gelfand, "_alternating_step", step)
    monkeypatch.setattr(Descriptor, "embedding", embedding)
    monkeypatch.setattr(tuhf.embeddings.RegularEmbedding, "__init__", init)
    monkeypatch.setattr(TowerSpec, "_steps", memo)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "0,1", "--y", "1,0")
    assert code == 0 and out.endswith("witness level 2 i 2 j 3\n")
    # the three printed lines come from one range check and one walk of
    # both chains, which steps each point once through the level-1
    # embedding by the closed-form step and never makes an embedding
    assert (calls["check"], calls["walks"], calls["step"], calls["embed"]) == (1, [2], 2, 0)
    assert len(calls["memo"]) == 1
    # depth 4 on a two-row memo: the walk stops at the deepest disagreement
    # (level 3), two steps per point, and the command's own tower builds
    # its own memo once
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "1,0,1,3", "--y", "0,1,2,3")
    assert code == 0 and out.endswith("witness level 3 i 6 j 35\n")
    assert (calls["check"], calls["walks"], calls["step"], calls["embed"]) == (2, [2, 3], 6, 0)
    assert len(calls["memo"]) == 2 and calls["memo"][0] is not calls["memo"][1]


def _spy_walks(monkeypatch):
    """Record each walk the towers start as a list of the levels it reaches,
    each with the type of its k."""
    walks = []
    real = TowerSpec._walk

    def spy(self, level, k, s, t):
        steps = []
        walks.append(steps)
        for n, row in enumerate(real(self, level, k, s, t), level + 1):
            steps.append((n, type(row[0])))
            yield row

    monkeypatch.setattr(TowerSpec, "_walk", spy)
    return walks


def test_tower_show_walks_each_level_once(files, capsys, monkeypatch):
    walks = _spy_walks(monkeypatch)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "tower", "show", f, "--levels", "300")
    assert code == 0 and out.startswith("level 1 k 4 s 2 t 2\n")
    # loading fills the int table to level 3; the show is one more walk,
    # one step per printed level past the first
    assert [len(steps) for steps in walks] == [2, 299]


def test_factor_single_level_errors(files, capsys, tmp_path):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..2")
    auto = tmp_path / "one.auto"
    auto.write_text(out)
    code, _, err = run(capsys, "factor", f, "--auto", str(auto))
    assert code == 1 and err


def test_factor_counts_a_repeated_level_pair_once(files, capsys):
    f = files("two.tower", TWO_INF)
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..2")
    code, out, err = run(capsys, "factor", f, "--auto", files("twice.auto", record * 2))
    assert (code, out) == (1, "")
    assert err == "error: need at least two level pairs for a cross-checked word, got 1\n"


# -- the line grammar of a record --------------------------------------------

# Every line boundary of str.splitlines
_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _record_of_six_pairs(files, capsys):
    """The tower k1 = 1, alt 2 2, and its shift record of levels 1..7,
    as a list of lines: line 4 is the action at m = 16, line 12 the
    closed form at m = 4096."""
    f = files("one.tower", "k1 1\ncycle alt 2 2\n")
    _, record, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..7")
    return f, record.splitlines()


# A line cut before block 2 leaves block 1 to be read as the whole
# partition, whose second element is then outside 1..4.
_CUT = {4: "element 5 outside 1..4", 12: "element 1025 outside 1..4"}


@pytest.mark.parametrize("lineno", [4, 12], ids=["m16", "m4096"])
@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda a: a + " # note", None),
        (lambda a: a.replace(";", "#", 1), _CUT),
        (lambda a: a + "\r", None),
        (lambda a: a.replace(";", "\r;", 1), _CUT),
        (lambda a: a.replace(";", "\x0c;", 1), _CUT),
        (lambda a: a.replace(";", "\x85;", 1), _CUT),
        (lambda a: a.replace(";", "\u2028;", 1), _CUT),
        (lambda a: a.replace("action ", "action\t", 1), None),
        (lambda a: a + " \t ", None),
        (lambda a: a.replace(";", " ;", 1), "expected three fields in partition text, got 4"),
        # U+0661, ARABIC-INDIC DIGIT ONE, which int() reads as 1
        (lambda a: a.replace("blocks=1,", "blocks=\u0661,", 1), None),
    ],
    ids=[
        "comment-after", "comment-inside", "crlf", "cr-inside", "ff-inside", "nel-inside",
        "u2028-inside", "tab-after-action", "trailing-whitespace", "space-inside",
        "arabic-indic-digit",
    ],
)
def test_an_edited_action_line_reads_as_pinned(files, capsys, lineno, edit, error):
    f, lines = _record_of_six_pairs(files, capsys)
    _, expected, _ = run(capsys, "factor", f, "--auto", files("plain.auto", "\n".join(lines)))
    lines[lineno - 1] = edit(lines[lineno - 1])
    auto = files("edited.auto", "\n".join(lines) + "\n")
    got = run(capsys, "factor", f, "--auto", auto)
    if error is None:
        assert got == (0, expected, "")
    else:
        message = error[lineno] if isinstance(error, dict) else error
        assert got == (2, "", f"error: line {lineno}: {message}\n")


@pytest.mark.parametrize("boundary", _BOUNDARIES, ids=lambda b: f"U+{ord(b[-1]):04X}-{len(b)}")
def test_every_line_boundary_ends_one_line(files, capsys, boundary):
    # a comment broken in two is two lines, so the cut action is line 14
    f, lines = _record_of_six_pairs(files, capsys)
    lines[11] = lines[11].replace(";", "#", 1)
    text = f"# one{boundary}# two\n" + "\n".join(lines) + "\n"
    got = run(capsys, "factor", f, "--auto", files("shifted.auto", text))
    assert got == (2, "", f"error: line 14: {_CUT[12]}\n")


def _content_lines_reference(text):
    """What ``_content_lines`` yields, by splitlines and split."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# line boundaries, "#", whitespace that is no boundary (\x1f and U+00A0
# among it), and ASCII and other characters of a record
_LINE_CHARS = "".join(_BOUNDARIES) + "#\t \x1f\xa0ab1;,=\u0661\xe9"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.text(st.sampled_from(_LINE_CHARS), max_size=40),
        # no boundary but "\n"
        st.text(st.sampled_from("\n#\t \x1f\xa0ab1;,=\u0661"), max_size=40),
    ),
    st.booleans(),
)
def test_content_lines_agree_with_the_splitlines_reference(text, long):
    if long:  # a first line long enough that the text is scanned in place
        text = "#" * tuhf.errors._SCAN_MIN + "\n" + text
    assert list(_content_lines(text)) == list(_content_lines_reference(text))


def test_embed_compose(capsys):
    code, out, _ = run(capsys, "embed", "compose", "--k", "2", "std 2", "nest 2")
    assert code == 0
    assert out.splitlines() == [
        "k_from 2",
        "k_to 8",
        "m=8 n=2 blocks=1,2,5,6;3,4,7,8",
    ]
    part = "part 4 m=4 n=2 blocks=1,3;2,4"
    code, out, _ = run(capsys, "embed", "compose", "--k", "2", part, "std 2")
    assert code == 0
    assert out.splitlines() == ["k_from 2", "k_to 8", "m=8 n=2 blocks=1,3,5,7;2,4,6,8"]
    # the second step starts from k = 4, which the partition does not chain to
    code, out, err = run(capsys, "embed", "compose", "--k", "2", "std 2", part)
    assert (code, out, err) == (1, "", "error: part descriptor expects k=2, got 4\n")


def test_embed_compare(capsys):
    code, out, _ = run(capsys, "embed", "compare", "--k", "2", "nest 2", "std 2")
    assert code == 0 and out.strip() == "less"


def test_embed_compare_decides_closed_forms_over_the_budget(capsys):
    # 10^9 elements each: the verdict comes from (k, t), not a partition
    code, out, err = run(
        capsys, "embed", "compare", "--k", "1000", "alt 1000 1000", "alt 1000 1000"
    )
    assert (code, out, err) == (0, "equal-on-projections\n", "")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "embed", "compare", "--k", "2", "alt 1000000 1", "alt 1 1000000"
    )
    assert (code, out, err) == (0, "greater\n", "")
    assert time.perf_counter() - start < 1.0


def test_embed_tensor(capsys):
    code, out, _ = run(
        capsys, "embed", "tensor", "--k", "2", "--j", "2", "std 2", "std 2"
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("m=16 n=4 blocks=1,3,9,11;")


def test_gelfand_cmp(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "0,1", "--y", "1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coordinate-order less"
    assert lines[1] == "projection-order less"
    assert lines[2].startswith("witness level ")


def test_gelfand_witness_absent(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "1,0", "--y", "0,1")
    assert code == 0
    assert out.splitlines()[2] == "witness absent"


def test_gelfand_out_of_range_is_domain_error(files, capsys):
    f = files("two.tower", TWO_INF)
    code, _, err = run(capsys, "gelfand", "cmp", f, "--x", "9,0", "--y", "0,0")
    assert code == 1 and "allowed range" in err


def test_normalizer_split(files, capsys):
    f = files(
        "v.mat",
        "dim 3\n0,0 0,1 0,0\n0,0 0,0 1,0\n0,0 0,0 0,0\n",
    )
    code, out, _ = run(capsys, "normalizer", "split", "--matrix", f)
    assert code == 0
    assert out.splitlines() == ["phases 0,1 1,0 1,0", "pattern 1,2 2,3"]


@pytest.mark.parametrize(
    "cell, code, message",
    [
        ("nan,0", 2, "entry (1,1) is not finite: 'nan,0'"),
        ("inf,0", 2, "entry (1,1) is not finite: 'inf,0'"),
        ("0.5,0", 1, "entry (1,1) has modulus 0.5, not 1"),
    ],
    ids=["nan", "inf", "modulus"],
)
def test_normalizer_split_errors(files, capsys, cell, code, message):
    f = files("v.mat", f"dim 1\n{cell}\n")
    assert run(capsys, "normalizer", "split", "--matrix", f) == (code, "", f"error: {message}\n")


def test_check_all(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "check", "all", f, "--seed", "0", "--cases", "3")
    assert code == 0
    assert out.splitlines()[-1] == "all suites passed"
    details = dict(line.split(" ok ", 1) for line in out.splitlines()[:-1])
    assert len(details) == 22
    # the details depend on the seeded instance streams; the two suites
    # that report a floating-point residual are left out
    del details["kronecker-bridge"], details["level-straightening"]
    assert details == {
        "partition-total-order": "(3 cases)",
        "partition-order-preservation": "(3 cases)",
        "partition-compose-associative": "(3 cases)",
        "prefix-restriction": "(3 cases)",
        "interleaved-runs": "(3 cases)",
        "run-size-oracle": "(3 cases (2 with 2+ source runs))",
        "embedding-functoriality": "(3 cases)",
        "alternating-closure": "(3 cases)",
        "normalizer-split": "(3 cases)",
        "shift-well-defined": "(3 cases, 5 level squares)",
        "factor-round-trip": "(3 cases)",
        "torsion": "(3 cases)",
        "gelfand-agreement": "(1 towers, 336 pairs)",
        "gelfand-total-order": "(3 cases)",
        "relation-member": "(3 cases)",
        "tensor-combine": "(3 cases)",
        "serialization-round-trip": "(3 cases)",
        "iso-witness": "(3 cases)",
        "supernatural-arithmetic": "(3 cases)",
        "dirichlet-dimension": "(k = 1..20)",
    }


def test_check_all_passes_on_a_tower_trial_division_cannot_settle(files, capsys):
    # the ratio (10^12 + 39)^2 has no prime factor below the trial limit,
    # so the tower's supernatural pair is unknown and it carries no word
    f = files("big.tower", "k1 1\ncycle alt 1000000000078000000001521 2\n")
    code, out, _ = run(capsys, "check", "all", f, "--cases", "3")
    assert code == 0
    assert out.splitlines()[-1] == "all suites passed"


def test_check_all_reports_failing_and_raising_suites(files, capsys, monkeypatch):
    def fails(rng, cases, tower):
        return False, f"case 2 of {cases} broke"

    def raises(rng, cases, tower):
        raise ValueError("no such case")

    suites = {"passes": lambda rng, cases, tower: (True, f"{cases} cases")}
    suites.update(fails=fails, raises=raises)
    monkeypatch.setattr(tuhf.checks, "SUITES", suites)
    f = files("two.tower", TWO_INF)
    code, out, err = run(capsys, "check", "all", f, "--cases", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "passes ok (3 cases)",
        "fails FAIL case 2 of 3 broke",
        "raises FAIL raised ValueError: no such case",
        "2 suite(s) failed",
    ]


def test_check_all_prints_each_suite_as_it_finishes(files, monkeypatch):
    out = io.StringIO()
    seen = []

    def second(rng, cases, tower):
        seen.append(out.getvalue())
        return True, "two"

    suites = {"first": lambda rng, cases, tower: (True, "one"), "second": second}
    monkeypatch.setattr(tuhf.checks, "SUITES", suites)
    with contextlib.redirect_stdout(out):
        code = main(["check", "all", files("two.tower", TWO_INF)])
    assert code == 0
    assert seen == ["first ok (one)\n"]
    assert out.getvalue() == "first ok (one)\nsecond ok (two)\nall suites passed\n"


def test_check_all_output_is_pinned(files, capsys):
    # Every suite's instance stream and detail, on six towers and three
    # (seed, cases) pairs each, hashed as exit code and stdout.
    towers = (
        TWO_INF,
        "k1 3\ncycle std 2\ncycle nest 2\n",
        "k1 2\ncycle std 3\ncycle nest 2\n",
        "k1 1\ncycle alt 3 3\n",
        "k1 2\ncycle nest 2\ncycle std 2\ncycle nest 2\n",
        "k1 2\ncycle nest 2\n",
    )
    digest = hashlib.sha256()
    for i, text in enumerate(towers):
        f = files(f"t{i}.tower", text)
        for seed, cases in ((0, 5), (i, 5), (7, 23)):
            code, out, _ = run(capsys, "check", "all", f, "--seed", str(seed), "--cases", str(cases))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "259c561968b4e5ad8038c30f8cd48807b4d7932f38a6250439b0340a6fc65c77"


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "tower", "show", "no-such-file.tower")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tower", "show", "{bad}", "--levels", "2"),
        ("factor", "{tower}", "--auto", "{bad}"),
        ("normalizer", "split", "--matrix", "{bad}"),
    ],
    ids=["tower", "auto", "matrix"],
)
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, files, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"k1 1\xff\ncycle alt 2 2\n")
    tower = files("one.tower", "k1 1\ncycle alt 2 2\n")
    got = run(capsys, *(a.format(bad=bad, tower=tower) for a in argv))
    assert got == (2, "", f"error: cannot read {bad}: not UTF-8 (invalid start byte)\n")


MATRIX = "dim 3\n0,0 0,1 0,0\n0,0 0,0 1,0\n0,0 0,0 0,0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tower", "show", "{tower}", "--levels", "2"),
        ("factor", "{plain}", "--auto", "{auto}"),
        ("normalizer", "split", "--matrix", "{matrix}"),
    ],
    ids=["tower", "auto", "matrix"],
)
def test_a_byte_order_mark_is_read_as_absent(tmp_path, files, capsys, argv):
    # an editor that saves "UTF-8 with BOM" starts the file with U+FEFF
    plain = files("plain.tower", TWO_INF)
    code, auto, _ = run(capsys, "shift", plain, "-p", "2", "--levels", "1..3")
    assert code == 0
    texts = {"tower": TWO_INF, "auto": auto, "matrix": MATRIX}
    marked, unmarked = {"plain": plain}, {"plain": plain}
    for name, text in texts.items():
        unmarked[name] = files(f"{name}.txt", text)
        marked[name] = str(tmp_path / f"{name}.bom")
        Path(marked[name]).write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = run(capsys, *(a.format(**unmarked) for a in argv))
    assert want[0] == 0 and want[1]
    assert run(capsys, *(a.format(**marked) for a in argv)) == want


def test_bad_grammar_is_parse_error(files, capsys):
    f = files("bad.tower", "k1 2\ncycle bogus 3\n")
    code, _, err = run(capsys, "tower", "show", f)
    assert code == 2


def test_shift_bad_level_range(files, capsys):
    f = files("two.tower", TWO_INF)
    code, _, err = run(capsys, "shift", f, "-p", "2", "--levels", "3..1")
    assert code == 2 and err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tower", "show", "{f}", "--levels", "0"), "--levels must be at least 1, got 0"),
        (("tower", "show", "{f}", "--levels", "-3"), "--levels must be at least 1, got -3"),
        (("check", "all", "{f}", "--cases", "-5"), "--cases must be at least 1, got -5"),
    ],
    ids=["levels-zero", "levels-negative", "cases-negative"],
)
def test_counts_below_one_are_parse_errors(files, capsys, argv, message):
    f = files("two.tower", TWO_INF)
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("shift", "{f}", "-p", "2", "--levels", "-1..3"), 2,
         "need 1 <= a < b in a level range, got -1..3"),
        (("shift", "{f}", "-p", "2", "--levels=-1..3"), 2,
         "need 1 <= a < b in a level range, got -1..3"),
        (("gelfand", "cmp", "{f}", "--x", "-1,1", "--y", "0,0"), 1,
         "coordinate 1 is -1, allowed range 0..3"),
        (("gelfand", "cmp", "{f}", "--x=-1,1", "--y", "0,0"), 1,
         "coordinate 1 is -1, allowed range 0..3"),
    ],
    ids=["levels", "levels-equals", "point", "point-equals"],
)
def test_values_starting_with_a_minus_reach_the_checks(files, capsys, argv, code, message):
    # no option starts with "-" and a digit, so such an argument is a value
    f = files("two.tower", TWO_INF)
    assert run(capsys, *(a.format(f=f) for a in argv)) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "split",
    ["s1 0\nt1 0\n", "s1 0\n", "t1 0\n", "s1 3\n"],
    ids=["zero-both", "zero-s1", "zero-t1", "non-divisor"],
)
def test_bad_split_is_domain_error(files, capsys, split):
    f = files("bad.tower", "k1 4\n" + split + "cycle alt 2 2\n")
    code, out, err = run(capsys, "tower", "show", f)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, size",
    [
        (("shift", "{f}", "-p", "2", "--levels", "2..4"), 256),
        (("embed", "tensor", "--k", "2", "--j", "2", "std 4", "std 8"), 128),
        (("embed", "compose", "--k", "2", "alt 4 4", "alt 2 2"), 128),
    ],
    ids=["shift", "embed-tensor", "embed-compose"],
)
def test_materialization_budget_refuses_large_partitions(
    files, capsys, monkeypatch, argv, size
):
    monkeypatch.setattr(tuhf.embeddings, "MAX_GROUND", 64)
    f = files("two.tower", TWO_INF)
    # a partition of exactly the limit is still built
    assert run(capsys, "shift", f, "-p", "2", "--levels", "1..3")[0] == 0
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: refusing to build a partition of {size} elements (limit 64)\n"


def test_embed_tensor_refuses_before_building_either_factor(capsys):
    # each factor has 2048^2 elements, exactly the limit; building both
    # before the tensor's size is checked allocates 64 MB
    argv = ("embed", "tensor", "--k", "2048", "--j", "2048", "alt 2048 1", "alt 2048 1")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: refusing to build a partition of 17592186044416 elements (limit 4194304)\n"
    assert peak < 8 * 2**20, peak


DEEP = "k1 2\ncycle alt 2 2\n"


@pytest.mark.parametrize("command", ["shift", "factor"])
def test_deep_level_requests_stop_at_the_first_level_over_the_limit(
    files, capsys, monkeypatch, command
):
    requested = []
    real = TowerSpec.level_dims

    def spy(self, n):
        requested.append(n)
        assert n <= 20, f"asked for level {n}"
        return real(self, n)

    monkeypatch.setattr(TowerSpec, "level_dims", spy)
    f = files("deep.tower", DEEP)
    if command == "shift":
        argv = ["shift", f, "-p", "2", "--levels", "200000..200001"]
        message = "refusing to build a partition of more than 8388608 elements (limit 4194304)"
    else:
        record = "levels 1 2\naction m=8 n=2 blocks=1,2,5,6;3,4,7,8\n"
        deep = "levels 199999 200000\naction m=8 n=2 blocks=1,2,5,6;3,4,7,8\n"
        argv = ["factor", f, "--auto", files("deep.auto", record + deep)]
        message = "datum at levels 199999..200000 has shape 2|8, tower level 3 already has dimension 32"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert max(requested) <= 20


def test_deep_points_ask_for_no_level_past_the_construction(files, capsys, monkeypatch):
    # point sizes come from the descriptors and the walk carries k_n itself,
    # so a 5000-coordinate point leaves the level table as loading left it
    requested = []
    real_dims, real_dim = TowerSpec.level_dims, TowerSpec.level_dim

    def spy(real):
        def asked(self, n):
            requested.append(n)
            assert n <= 3, f"asked for level {n}"
            return real(self, n)

        return asked

    monkeypatch.setattr(TowerSpec, "level_dims", spy(real_dims))
    monkeypatch.setattr(TowerSpec, "level_dim", spy(real_dim))
    f = files("deep.tower", DEEP)
    x = ["0"] * 5000
    y = x[:-1] + ["1"]
    code, out, err = run(capsys, "gelfand", "cmp", f, "--x", ",".join(x), "--y", ",".join(y))
    assert (code, err) == (0, "")
    assert out == "coordinate-order less\nprojection-order less\nwitness level 5000 i 1 j 2\n"
    assert max(requested) <= 3


def test_tower_show_prints_integers_of_any_length(files, capsys):
    # k passes Python's default 4300-digit str conversion cap from level 3573
    f = files("deep.tower", DEEP)
    code, out, err = run(capsys, "tower", "show", f, "--levels", "7200")
    assert (code, err) == (0, "")
    assert out.splitlines()[7199] == f"level 7200 k {2 * 4**7199} s {2**7199} t {2**7200}"


def _show_from_the_level_table(tower, levels):
    """`tower show`'s stdout written from str() of the int level table."""
    lines = []
    for n in range(1, levels + 1):
        k, s, t = tower.level_dims(n)
        lines.append(f"level {n} k {k}" if s is None else f"level {n} k {k} s {s} t {t}")
    if tower.is_alternating_form:
        s_side, t_side = tower.supernatural_pair()
        lines += [f"s-side {s_side}", f"t-side {t_side}"]
    else:
        lines.append("supernatural pair undefined (tower leaves interval form)")
    return "\n".join(lines) + "\n"


BIG_K1 = "7" * 4400  # 7 * 11...1, past the 4300-digit int/str cap


@pytest.mark.parametrize(
    "text, levels",
    [
        (TWO_INF, 1200),
        ("k1 6\ncycle std 2\ncycle nest 3\n", 1000),
        ("k1 12\nt1 4\npreamble alt 11 13\ncycle alt 2 15\ncycle alt 15 2\n", 1000),
        ("k1 2\ns1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\ncycle alt 3 5\n", 1000),
        ("k1 2\npreamble std 3\npreamble part 12 m=12 n=6 blocks=1,7;2,8;3,9;4,10;5,11;6,12\n"
         "cycle nest 5\n", 1000),
        (f"k1 {BIG_K1}\nt1 7\ncycle alt 3 2\n", 30),
        (f"k1 {BIG_K1}\ncycle nest {2**130 * 3**20}\n", 30),
    ],
    ids=["alt-declared", "std-nest-default", "preamble-alt", "part-preamble",
         "part-after-std", "big-k1-alt", "big-k1-big-ratio"],
)
def test_tower_show_matches_the_int_level_table(files, capsys, text, levels):
    code, out, err = run(capsys, "tower", "show", files("t.tower", text), "--levels", str(levels))
    assert (code, err) == (0, "")
    tower = tuhf.towers.load_tower(text)
    expected = _show_from_the_level_table(tower, levels)
    # name the first differing line; a diff of megabyte texts takes minutes
    first = next(
        (f"{got[:60]} != {want[:60]}"
         for got, want in zip(out.splitlines(), expected.splitlines()) if got != want),
        "line counts differ",
    )
    identical = out == expected
    assert identical, first
    # the cases reach far past the 28 digits of the default decimal context
    assert len(str(tower.level_dim(levels))) > 28 * 10


@pytest.mark.parametrize(
    "text, product, signal",
    [
        # 6^n: a step past the precision drops nonzero digits
        ("k1 1\ncycle alt 2 3\n", (123456789, 7), decimal.Inexact),
        # 10^n: the dropped digits are zeros, which only Rounded reports
        ("k1 1\ncycle alt 2 5\n", (10**8, 10), decimal.Rounded),
    ],
    ids=["inexact", "rounded"],
)
def test_tower_show_raises_instead_of_rounding(
    files, capsys, monkeypatch, text, product, signal
):
    assert tuhf.cli._EXACT.prec == decimal.MAX_PREC
    small = tuhf.cli._EXACT.copy()
    small.prec = 8
    monkeypatch.setattr(tuhf.cli, "_EXACT", small)
    with decimal.localcontext(small), pytest.raises(signal):
        decimal.Decimal(product[0]) * product[1]
    f = files("t.tower", text)
    with pytest.raises(signal):
        main(["tower", "show", f, "--levels", "12"])
    # the levels that fit in eight digits were printed exactly
    assert capsys.readouterr().out.splitlines()[-1] == (
        "level 11 k 60466176 s 1024 t 59049" if signal is decimal.Inexact
        else "level 8 k 10000000 s 128 t 78125"
    )


def _unchained_tower():
    # k1 = 3 but the part descriptor embeds T_2; construction refuses this
    # tower, so it is assembled field by field
    part = tuhf.towers.parse_descriptor("part 4 m=4 n=2 blocks=1,3;2,4")
    tower = TowerSpec.__new__(TowerSpec)
    fields = {"k1": 3, "s1": 1, "t1": 3, "preamble": (part,),
              "cycle": (Descriptor("std", s_mult=2),), "_levels": [(3, 1, 3)]}
    for name, value in fields.items():
        object.__setattr__(tower, name, value)
    return tower


def test_level_table_and_show_share_one_step(files, capsys, monkeypatch):
    message = "level 1: part descriptor expects k=2, got 3"
    with pytest.raises(tuhf.towers.ChainMismatch) as table:
        _unchained_tower().level_dims(2)
    assert str(table.value) == message
    with pytest.raises(tuhf.towers.ChainMismatch) as step:
        next(_unchained_tower()._walk(1, *map(decimal.Decimal, (3, 1, 3))))
    assert str(step.value) == message

    load_tower = tuhf.towers.load_tower
    monkeypatch.setattr(tuhf.towers, "load_tower", lambda text: _unchained_tower())
    code, out, err = run(capsys, "tower", "show", files("t.tower", "k1 3\n"), "--levels", "2")
    assert (code, out, err) == (1, "level 1 k 3 s 1 t 3\n", f"error: {message}\n")

    # on a tower that chains, each printed level past the first is one step
    walks = _spy_walks(monkeypatch)
    monkeypatch.setattr(tuhf.towers, "load_tower", load_tower)
    assert run(capsys, "tower", "show", files("two.tower", TWO_INF), "--levels", "6")[0] == 0
    # loading fills the int table to level 3; the show walk steps on decimals
    assert walks == [[(2, int), (3, int)], [(n, decimal.Decimal) for n in range(2, 7)]]


def test_tower_show_takes_a_levels_count_past_sys_maxsize(files, capsys, monkeypatch):
    # every real tower chains forever, so this walk stops itself after two steps
    def walk(self, level, k, s, t):
        yield k * 2, s, t * 2
        yield k * 4, s, t * 4
        raise tuhf.towers.ChainMismatch("level 3: part descriptor expects k=5, got 16")

    monkeypatch.setattr(TowerSpec, "_walk", walk)
    f = files("two.tower", TWO_INF)
    code, out, err = run(capsys, "tower", "show", f, "--levels", str(10**20))
    assert code == 1
    assert out.splitlines() == [
        "level 1 k 4 s 2 t 2",
        "level 2 k 8 s 2 t 4",
        "level 3 k 16 s 2 t 8",
    ]
    assert err == "error: level 3: part descriptor expects k=5, got 16\n"


BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv, tower",
    [
        (("shift", "{f}", "-p", str(BIG_PRIME)), DEEP),
        (("tower", "normalize", "{f}", "-p", str(BIG_PRIME)), DEEP),
        (("tower", "normalize", "{f}", "--word", f"{BIG_PRIME}/1"), DEEP),
        (("tower", "show", "{f}"), f"k1 1\ncycle alt {BIG_PRIME} 2\n"),
    ],
    ids=["shift", "normalize-prime", "normalize-word", "show"],
)
def test_large_user_numbers_are_refused_quickly(files, capsys, argv, tower):
    f = files("t.tower", tower)
    start = time.perf_counter()
    code, _, err = run(capsys, *(a.format(f=f) for a in argv))
    assert time.perf_counter() - start < 2
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{BIG_PRIME} " in err


def test_a_refused_word_names_its_least_prime(files, capsys):
    # 70000000000259 = 7 * 10000000000037: prime 7 decides the refusal, and
    # the cofactor past TRIAL_LIMIT**2 is never factored
    f = files("t.tower", "k1 1\ncycle alt 2 2\n")
    assert run(capsys, "tower", "normalize", f, "--word", "70000000000259/1") == (
        1,
        "",
        "error: prime 7 of word 70000000000259/1 is not infinite in both supernatural coordinates\n",
    )


def test_the_parser_is_built_once_per_process(files, capsys, monkeypatch):
    built = []
    init = tuhf.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tuhf.cli._Parser, "__init__", counted)
    tuhf.cli.build_parser.cache_clear()
    f = files("two.tower", TWO_INF)
    assert run(capsys, "out-rank", f) == (0, "1\n", "")
    once = len(built)
    assert run(capsys, "out-rank", f) == (0, "1\n", "")
    assert once > 0 and len(built) == once


def test_a_reused_parser_still_gives_help_and_argument_errors(files, capsys):
    assert run(capsys, "out-rank", files("two.tower", TWO_INF))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["shift", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tuhf shift [-h] -p PRIME")
    with pytest.raises(SystemExit) as exc:
        main(["shift"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error: the following arguments are required") and err.count("\n") == 1


# -- each command parses with its own parser -------------------------------

# Every command and group name, every option and a few values, so that a
# drawn command line may be whole, cut short, out of order or misspelled.
_WORDS = (
    "tower", "show", "normalize", "out-rank", "iso", "factor", "shift", "embed",
    "compose", "compare", "tensor", "gelfand", "cmp", "normalizer", "split", "check",
    "all", "nope",
)
_OPTIONS = (
    "-h", "--help", "-p", "--prime", "-p3", "--word", "--levels", "--levels=2", "--lev",
    "--auto", "--k", "--j", "--x", "--y", "--tail-x", "--tail-y", "--matrix", "--seed",
    "--cases", "--bogus", "--", "-",
)
_VALUES = ("f", "2", "-3", "-1..3", "1..3", "alt 2 2", "std 2", "0,1", "-1,1", "")
_COMMANDS = [(), ("out-rank",), ("iso",), ("factor",), ("shift",), ("tower",),
             ("embed",), ("gelfand",), ("normalizer",), ("check",)] + [
    (group, leaf) for group, leaves in (
        ("tower", ("show", "normalize")), ("embed", ("compose", "compare", "tensor")),
        ("gelfand", ("cmp",)), ("normalizer", ("split",)), ("check", ("all",)),
    ) for leaf in leaves
]

# Whole command lines, each of which parses.
_WHOLE = (
    ("tower", "show", "f", "--levels", "3"), ("tower", "normalize", "f", "-p", "2"),
    ("tower", "normalize", "f", "--word", "2/1"), ("out-rank", "f"), ("iso", "f", "f"),
    ("factor", "f", "--auto", "a"), ("shift", "f", "-p", "2", "--levels", "-1..3"),
    ("embed", "compose", "--k", "2", "std 2", "alt 2 2"),
    ("embed", "compare", "--k", "2", "std 2", "nest 2"),
    ("embed", "tensor", "--k", "2", "--j", "3", "std 2", "alt 2 2"),
    ("gelfand", "cmp", "f", "--x", "-1,1", "--y", "0,1", "--tail-x", "a"),
    ("normalizer", "split", "--matrix", "m"), ("check", "all", "f", "--seed", "3"),
)


@st.composite
def _command_lines(draw):
    """A whole command line with at most one word dropped, replaced or added,
    or a command's words followed by a drawn tail."""
    words = _WORDS + _OPTIONS + _VALUES
    if draw(st.booleans()):
        argv = list(draw(st.sampled_from(_WHOLE)))
        i = draw(st.integers(0, len(argv)))
        how = draw(st.sampled_from(["keep", "drop", "replace", "add"]))
        if how == "add":
            argv.insert(i, draw(st.sampled_from(words)))
        elif how != "keep" and i < len(argv):
            argv[i:i + 1] = [draw(st.sampled_from(words))] if how == "replace" else []
        return argv
    command = draw(st.sampled_from(_COMMANDS))
    return [*command, *draw(st.lists(st.sampled_from(words), max_size=6))]


def _parsed(parse, argv):
    """(exit code, stdout, stderr, namespace) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _by_root_parser(argv):
    """The reference: the whole command line through the root parser."""
    return tuhf.cli.build_parser().parse_args(argv)


def _by_command_parser(argv):
    parser, rest = tuhf.cli._command_parser(argv)
    return parser.parse_args(rest)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_command_lines())
def test_the_command_parser_parses_as_the_root_parser(argv):
    want = _parsed(_by_root_parser, argv)
    got = _parsed(_by_command_parser, argv)
    assert got[:3] == want[:3]
    # the root alone records the command's words, which nothing reads
    if want[3] is not None:
        want = {k: v for k, v in want[3].items() if k not in ("command", "subcommand")}
        assert got[3] == want
    else:
        assert got[3] is None


@pytest.mark.parametrize(
    "argv, prog",
    [
        (["out-rank", "{f}"], "tuhf out-rank"),
        (["tower", "show", "{f}"], "tuhf tower show"),
        (["check", "all", "{f}", "--cases", "1"], "tuhf check all"),
        (["tower", "--help"], "tuhf"),
        (["--help"], "tuhf"),
    ],
)
def test_main_parses_with_the_parser_of_the_command(files, capsys, monkeypatch, argv, prog):
    parsed = []
    parse_args = tuhf.cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(tuhf.cli._Parser, "parse_args", spy)
    f = files("two.tower", TWO_INF)
    with contextlib.suppress(SystemExit):
        main([a.format(f=f) for a in argv])
    capsys.readouterr()
    assert parsed == [prog]


STALLED = "error: the cycle leaves k=2 unchanged; tower dimensions must grow\n"


@pytest.mark.parametrize(
    "cycle", ["std 1", "nest 1", "alt 1 1", "part 2 m=2 n=2 blocks=1;2"]
)
def test_a_cycle_that_keeps_k_is_refused(files, capsys, cycle):
    f = files("flat.tower", f"k1 2\ncycle {cycle}\n")
    assert run(capsys, "tower", "show", f) == (1, "", STALLED)


def test_factor_on_a_tower_that_stops_growing_is_refused_at_once(files, capsys):
    f = files("flat.tower", "k1 2\ncycle std 1\n")
    record = "levels {} {}\naction m=2 n=2 blocks=1;2\n"
    auto = files("flat.auto", record.format(1, 2) + record.format(999999, 1000000))
    start = time.perf_counter()
    assert run(capsys, "factor", f, "--auto", auto) == (1, "", STALLED)
    assert time.perf_counter() - start < 1


# -- numpy loads only where an array is built -----------------------------

def _fresh_python(script, *args):
    """stdout of ``script`` in a new interpreter that imports tuhf from src."""
    result = subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert result.stderr == ""
    return result.stdout


COMMANDS_IN_A_FRESH_PROCESS = """\
import contextlib, io, json, sys
import tuhf.cli
from tuhf.cli import main

def loaded(after):
    names = sorted(m for m in sys.modules if m.split(".")[0] == "tuhf")
    print("after", after, "loaded", *names, flush=True)

tuhf.cli.build_parser()
loaded("build_parser")
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
loaded("refusals")
for n, argv in enumerate(json.loads(sys.argv[1])):
    main(argv)
    loaded(f"closed-{n}")
print("numpy loaded", "numpy._core" in sys.modules, flush=True)
print("ctypes loaded", "ctypes" in sys.modules, flush=True)
for argv in json.loads(sys.argv[2]):
    main(argv)
"""


def test_commands_without_arrays_leave_numpy_unloaded(files, capsys):
    # The lazy ``numpy`` module is in sys.modules from import on, so look
    # for a submodule that only its execution loads.
    f = files("two.tower", TWO_INF)
    closed = [
        ["tower", "show", f, "--levels", "3"],
        ["tower", "normalize", f, "-p", "2"],
        ["out-rank", f],
        ["iso", f, f],
        ["gelfand", "cmp", f, "--x", "0,1", "--y", "1,0"],
    ]
    arrays = [["shift", f, "-p", "2", "--levels", "1..3"], ["check", "all", f, "--cases", "2"]]
    # help and argument errors, which exit before any command runs
    refusals = [["--help"], ["shift", "--help"], ["tower"], ["shift"], ["iso", f], ["nope"]]
    out = _fresh_python(
        COMMANDS_IN_A_FRESH_PROCESS, json.dumps(closed), json.dumps(arrays), json.dumps(refusals)
    )
    lines = out.splitlines(keepends=True)
    loaded = {
        line.split()[1]: set(line.split()[3:]) for line in lines if line.startswith("after ")
    }
    expected = (
        "".join(run(capsys, *argv)[1] for argv in closed)
        + "numpy loaded False\n"
        + "ctypes loaded False\n"
        + "".join(run(capsys, *argv)[1] for argv in arrays)
    )
    assert "".join(line for line in lines if not line.startswith("after ")) == expected
    assert out.endswith("all suites passed\n")

    # the parser, help and argument errors load no module of the calculus
    floor = {"tuhf", "tuhf.cli", "tuhf.errors"}
    assert loaded["build_parser"] == loaded["refusals"] == floor
    # `tower show` walks the levels without automorphisms, matrices, the
    # Gelfand order or the suites
    shown = loaded["closed-0"]
    assert shown > floor and "tuhf.towers" in shown
    unused = {"tuhf.automorphisms", "tuhf.gelfand", "tuhf.matrices", "tuhf.checks"}
    assert not shown & unused


FAULTS_OVER_ROUNDS = """\
import contextlib, io, json, os, resource, sys
from tuhf.cli import main

os.chdir(sys.argv[1])
with open("t.tower", "w") as f:
    f.write("k1 1\\ncycle alt 2 2\\n")
compose = ["embed", "compose", "--k", "1", *["std 2", "nest 2"] * 7]
faults = []
for _ in range(6):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    records = io.StringIO()
    with contextlib.redirect_stdout(records):
        main(["shift", "t.tower", "-p", "2", "--levels", "2..9"])
    with open("t.auto", "w") as f:
        f.write(records.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        main(["factor", "t.tower", "--auto", "t.auto"])
        main(compose)
faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(json.dumps(faults))
"""


def test_a_warm_process_reuses_the_memory_of_its_arrays(tmp_path):
    # With glibc's own thresholds each round faults about 1,400 pages in
    # again, which the rounds before it had handed back.
    import ctypes

    try:
        has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        has_mallopt = False
    if not has_mallopt:
        pytest.skip("no mallopt in this C library")
    faults = json.loads(_fresh_python(FAULTS_OVER_ROUNDS, str(tmp_path)))
    assert faults[6] - faults[3] <= 100, faults


class _Cdll:
    """Stands in for ``ctypes.CDLL``; records the names it is opened with."""

    def __init__(self, lib):
        self.lib, self.names = lib, []

    def __call__(self, name):
        self.names.append(name)
        if self.lib is None:
            raise OSError("no C library")
        return self.lib


@pytest.mark.parametrize("lib", [None, object()], ids=["no-library", "no-mallopt"])
def test_shift_runs_where_mallopt_cannot_be_resolved(files, capsys, monkeypatch, lib):
    import ctypes

    f = files("two.tower", TWO_INF)
    argv = ["shift", f, "-p", "2", "--levels", "1..5"]
    want = run(capsys, *argv)
    cdll = _Cdll(lib)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    tuhf.cli._keep_array_memory.cache_clear()
    try:
        assert run(capsys, *argv) == want and want[0] == 0
        assert run(capsys, *argv) == want
        assert cdll.names == [None]
        assert tuhf.cli._keep_array_memory() is False
    finally:
        tuhf.cli._keep_array_memory.cache_clear()


MALLOPT_SPY = """\
import contextlib, ctypes, io, json, sys, types
from tuhf.cli import main

calls = []

def mallopt(param, value):
    calls.append([param, value, "numpy._core" in sys.modules])
    return 1

ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    print(json.dumps(calls))
"""


def test_main_sets_each_threshold_once_after_numpy_has_run(files):
    f = files("two.tower", TWO_INF)
    shift = ["shift", f, "-p", "2", "--levels", "1..4"]
    commands = [
        ["tower", "show", f],
        ["iso", f, f],
        shift,
        shift,
        ["embed", "compose", "--k", "2", "alt 2 2", "std 3"],
        ["check", "all", f, "--cases", "2"],
        shift,
    ]
    out = _fresh_python(MALLOPT_SPY, json.dumps(commands))
    # numpy first runs inside the first shift, so the next command sets
    # M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), and none after it.
    settings = [[-3, 1 << 20, True], [-1, 8 << 20, True]]
    assert [json.loads(line) for line in out.splitlines()] == [[]] * 3 + [settings] * 4


def test_an_imported_numpy_is_reused():
    script = "import sys, numpy, tuhf.partitions; print(tuhf.partitions.np is numpy is sys.modules['numpy'])"
    assert _fresh_python(script) == "True\n"


def test_a_blocked_numpy_fails_the_import():
    # The package and the CLI load without numpy; the first module that
    # needs it fails, however it is reached.
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import tuhf, tuhf.cli\n"
        "for statement in ('import tuhf.partitions', 'from tuhf import OrderedPartition'):\n"
        "    try:\n"
        "        exec(statement)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert _fresh_python(script) == "ModuleNotFoundError\n" * 2


def test_help_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from tuhf.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    print('help exits', exc.code)\n"
    )
    out = _fresh_python(script)
    assert out.startswith("usage: tuhf [-h]") and out.endswith("\nhelp exits 0\n")
