"""End-to-end runs of every subcommand through main()."""

import time

import pytest

import tuhf.automorphisms
import tuhf.cli
import tuhf.embeddings
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


def test_gelfand_cmp_checks_each_point_once_per_order(files, capsys, monkeypatch):
    calls = {"sizes": 0, "embedding": 0}
    real_sizes = tuhf.gelfand.coordinate_sizes
    real_embedding = TowerSpec.embedding

    def sizes(tower, depth):
        calls["sizes"] += 1
        return real_sizes(tower, depth)

    def embedding(self, n):
        calls["embedding"] += 1
        return real_embedding(self, n)

    monkeypatch.setattr(tuhf.gelfand, "coordinate_sizes", sizes)
    monkeypatch.setattr(TowerSpec, "embedding", embedding)
    f = files("two.tower", TWO_INF)
    code, out, _ = run(capsys, "gelfand", "cmp", f, "--x", "0,1", "--y", "1,0")
    assert code == 0 and out.endswith("witness level 2 i 2 j 3\n")
    # coordinate order, projection order and witness each check both points
    # against one range list; the two chain walks read level 1 once each
    assert calls == {"sizes": 3, "embedding": 2}


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
    ],
    ids=["shift", "embed-tensor"],
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


def test_tower_show_prints_integers_of_any_length(files, capsys):
    # k passes Python's default 4300-digit str conversion cap from level 3573
    f = files("deep.tower", DEEP)
    code, out, err = run(capsys, "tower", "show", f, "--levels", "7200")
    assert (code, err) == (0, "")
    assert out.splitlines()[7199] == f"level 7200 k {2 * 4**7199} s {2**7199} t {2**7200}"


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
