"""End-to-end runs of every subcommand through main()."""

import pytest

import tuhf.automorphisms
import tuhf.gelfand
from tuhf.cli import main
from tuhf.towers import TowerSpec

TWO_INF = "k1 4\ns1 2\nt1 2\ncycle alt 2 2\n"
NEST = "k1 2\ncycle nest 3\n"
ISO_A = "k1 1\npreamble alt 3 1\ncycle alt 2 5\n"
ISO_B = "k1 1\npreamble alt 1 3\ncycle alt 2 5\n"
SWAPPED_A = "k1 1\ncycle alt 2 3\n"
SWAPPED_B = "k1 1\ncycle alt 3 2\n"


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
    lines = out.splitlines()
    assert "word 2/1" in lines
    assert "status consistent" in lines


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


def test_gelfand_cmp_checks_each_point_once_per_order(files, capsys, monkeypatch):
    calls = 0
    real = tuhf.gelfand._check_ranges

    def counted(tower, x):
        nonlocal calls
        calls += 1
        return real(tower, x)

    monkeypatch.setattr(tuhf.gelfand, "_check_ranges", counted)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "0,1", "--y", "1,0")
    assert code == 0 and out.endswith("witness level 2 i 2 j 3\n")
    # coordinate order, projection order and witness validate both points once each
    assert calls == 6


def test_tower_show_walks_each_level_once(files, capsys, monkeypatch):
    calls = 0
    real = TowerSpec.descriptor_at

    def counted(self, n):
        nonlocal calls
        calls += 1
        return real(self, n)

    monkeypatch.setattr(TowerSpec, "descriptor_at", counted)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "tower", "show", f, "--levels", "300")
    assert code == 0 and out.startswith("level 1 k 4 s 2 t 2\n")
    assert calls <= 2 * 300


def test_factor_single_level_errors(files, capsys, tmp_path):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "shift", f, "-p", "2", "--levels", "1..2")
    auto = tmp_path / "one.auto"
    auto.write_text(out)
    code, _, err = run(capsys, "factor", f, "--auto", str(auto))
    assert code == 1 and err


def test_embed_compose(capsys):
    code, out, _ = run(capsys, "embed", "compose", "--k", "2", "std 2", "nest 2")
    assert code == 0
    assert out.splitlines() == [
        "k_from 2",
        "k_to 8",
        "m=8 n=2 blocks=1,2,5,6;3,4,7,8",
    ]


def test_embed_compare(capsys):
    code, out, _ = run(capsys, "embed", "compare", "--k", "2", "nest 2", "std 2")
    assert code == 0 and out.strip() == "less"


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


def test_check_all(files, capsys):
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "check", "all", f, "--seed", "0", "--cases", "3")
    assert code == 0
    assert out.splitlines()[-1] == "all suites passed"
    assert sum(1 for line in out.splitlines() if " ok " in line) == 22


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "tower", "show", "no-such-file.tower")
    assert code == 2 and "cannot read" in err


def test_bad_grammar_is_parse_error(files, capsys):
    f = files("bad.tower", "k1 2\ncycle bogus 3\n")
    code, _, err = run(capsys, "tower", "show", f)
    assert code == 2


def test_shift_bad_level_range(files, capsys):
    f = files("two.tower", TWO_INF)
    code, _, err = run(capsys, "shift", f, "-p", "2", "--levels", "3..1")
    assert code == 2 and err


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
